package core

import (
	"math/bits"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/ngram"
)

// The mask kernel counts with lane counters: each uint16 mask plane
// splits into a low and a high byte, spread[b] widens a mask byte into
// eight 8-bit lanes (lane j is 1 iff bit j of b is set), and adding
// spread values into two uint64 accumulators counts eight languages
// per add — a positional population count held in registers
// (Klarqvist, Muła & Lemire, arXiv:1911.02696). Every kernel counts in
// these lane words (Kernel.AddLanes); a lane holds at most 255, so they
// fold into int counters at least once every laneFlush n-grams.
//
// Two loops produce those lane words from bytes. countLanes, in Go,
// takes four characters per step and one plane load per n-gram; it
// runs on every CPU and is the reference. countGroups, in amd64
// assembly, takes 16 n-grams per group: it translates 32 bytes per
// step, gathers eight masks per instruction and counts a group's 16
// masks with byte compares, about twice the Go loop's speed. It runs
// wherever the CPU has AVX2 (useGroups, decided once at start), for
// countFused on every 16 bytes after the register is full, and for
// countChunks on every whole chunk: a segmentation chunk is one group.

// maskPlaneLangs is the number of languages one uint16 mask plane holds.
const maskPlaneLangs = 16

// laneFlush is the most n-grams counted into the lane accumulators
// between flushes: below the 255 a byte lane can hold, and a multiple
// of the fused loop's four-character step.
const laneFlush = 252

// spread maps a mask byte to its eight bits, one per byte lane.
var spread = func() (t [256]uint64) {
	for b := range t {
		for j := 0; j < 8; j++ {
			t[b] |= uint64(b>>j&1) << (8 * j)
		}
	}
	return t
}()

// foldLanes adds the counts held in lane words into counts.
func foldLanes(counts []int, lanes []uint64) {
	for i := 0; i < len(lanes); i += 2 {
		addLanes(counts[i*8:], lanes[i], lanes[i+1])
	}
}

// sumChunks adds into counts the lane counts of the chunks whose lo
// and hi words sit at rs[i] and rs[i+1], for every i a multiple of
// step: one plane's up to 16 languages, summed in lanes groupsPerFlush
// chunks at a time, so no lane passes 255.
func sumChunks(counts []int, rs []uint64, step int) {
	for len(rs) > 0 {
		n := min(len(rs), groupsPerFlush*step)
		var lo, hi uint64
		for i := 0; i+1 < n; i += step {
			lo, hi = lo+rs[i], hi+rs[i+1]
		}
		addLanes(counts, lo, hi)
		rs = rs[n:]
	}
}

// kernelCounts adds each language's match count over gs into counts,
// folding k's lane words every laneFlush n-grams.
func kernelCounts(k Kernel, counts []int, gs []uint32) {
	lanes := make([]uint64, 2*((len(counts)+maskPlaneLangs-1)/maskPlaneLangs))
	for len(gs) > 0 {
		b := gs[:min(len(gs), laneFlush)]
		gs = gs[len(b):]
		k.AddLanes(lanes, b)
		foldLanes(counts, lanes)
		clear(lanes)
	}
}

// addLanes adds the lane counts of one plane's low and high mask
// bytes into dst, for the plane's up to 16 languages from its start.
func addLanes(dst []int, lo, hi uint64) {
	if len(dst) >= 8 {
		dst[0], dst[1] = dst[0]+int(uint8(lo)), dst[1]+int(uint8(lo>>8))
		dst[2], dst[3] = dst[2]+int(uint8(lo>>16)), dst[3]+int(uint8(lo>>24))
		dst[4], dst[5] = dst[4]+int(uint8(lo>>32)), dst[5]+int(uint8(lo>>40))
		dst[6], dst[7] = dst[6]+int(uint8(lo>>48)), dst[7]+int(uint8(lo>>56))
		dst, lo = dst[8:], hi
	}
	for j := range dst[:min(len(dst), 8)] {
		dst[j] += int(uint8(lo))
		lo >>= 8
	}
}

// maskKernel is the exact fused membership kernel: HAIL's direct table
// (§2), generalised from one language per packed n-gram to a language
// bitmask per packed n-gram. planes[p][g] has bit b set iff language
// 16p+b's profile contains g, so scoring one n-gram against every
// language is a single table load per 16 languages.
type maskKernel struct {
	planes [][]uint16
}

// maxMaskN is the largest n the mask table is built for. The table is
// indexed by the packed n-gram, so its size is 2^Bits(N) entries per
// plane: 2 MiB at the paper's N=4, 64 MiB at N=5, 2 GiB at N=6, where
// the probe kernel takes over.
const maxMaskN = 5

// buildMaskKernel programs the mask planes from the profiles. A plane
// is an ngram.NewTable, so the first one takes the flat index a
// training run just released when the sizes match.
func buildMaskKernel(cfg Config, ps *ProfileSet) Kernel {
	nBits := ngram.Bits(cfg.N)
	k := &maskKernel{planes: make([][]uint16, (len(ps.Profiles)+maskPlaneLangs-1)/maskPlaneLangs)}
	for p := range k.planes {
		k.planes[p] = ngram.NewTable(nBits)
	}
	for i, prof := range ps.Profiles {
		plane, bit := k.planes[i/maskPlaneLangs], uint16(1)<<(i%maskPlaneLangs)
		for _, g := range prof.Grams {
			plane[g] |= bit
		}
	}
	return k
}

// AddLanes adds each n-gram's language masks into lanes: per plane,
// one table load and two lane adds per n-gram, four n-grams per step so
// the adds form a tree instead of one serial chain.
func (k *maskKernel) AddLanes(lanes []uint64, gs []uint32) {
	for p, plane := range k.planes {
		lo, hi := lanes[2*p], lanes[2*p+1]
		i := 0
		for ; i+4 <= len(gs); i += 4 {
			m0, m1, m2, m3 := plane[gs[i]], plane[gs[i+1]], plane[gs[i+2]], plane[gs[i+3]]
			lo += spread[uint8(m0)] + spread[uint8(m1)] + spread[uint8(m2)] + spread[uint8(m3)]
			hi += spread[m0>>8] + spread[m1>>8] + spread[m2>>8] + spread[m3>>8]
		}
		for ; i < len(gs); i++ {
			m := plane[gs[i]]
			lo += spread[uint8(m)]
			hi += spread[m>>8]
		}
		lanes[2*p], lanes[2*p+1] = lo, hi
	}
}

// probeKernel is the exact kernel for n > maxMaskN, where a mask plane
// indexed by the packed n-gram would not fit: the same language masks,
// kept only for the L·t n-grams the profiles hold (HAIL's direct
// lookup, §2, made compact). tables[p] answers for languages 16p to
// 16p+15 with one uint64 slot per distinct n-gram: the packed n-gram
// above the low 16 bits, its language mask in them. A table is
// open-addressed with linear probing from a multiplicative hash and is
// less than half full; a used slot's mask is never zero, so a zero slot
// is empty and ends a probe.
type probeKernel struct {
	tables [][]uint64
}

// probeHash is the Fibonacci hashing multiplier: the top bits of
// g*probeHash are an n-gram's first slot.
const probeHash = 0x9e3779b97f4a7c15

// buildProbeKernel fills the probe tables from the profiles, each with
// more than twice as many slots, a power of two, as its languages hold
// n-grams.
func buildProbeKernel(ps *ProfileSet) Kernel {
	k := &probeKernel{tables: make([][]uint64, (len(ps.Profiles)+maskPlaneLangs-1)/maskPlaneLangs)}
	for p := range k.tables {
		profs := ps.Profiles[p*maskPlaneLangs : min(len(ps.Profiles), (p+1)*maskPlaneLangs)]
		grams := 0
		for _, prof := range profs {
			grams += len(prof.Grams)
		}
		t := make([]uint64, 1<<bits.Len(uint(2*grams)))
		shift, last := probeShift(t), uint64(len(t)-1)
		for i, prof := range profs {
			for _, g := range prof.Grams {
				key := uint64(g)
				j := key * probeHash >> shift
				for t[j] != 0 && t[j]>>16 != key {
					j = (j + 1) & last
				}
				t[j] |= key<<16 | 1<<i
			}
		}
		k.tables[p] = t
	}
	return k
}

// probeShift is the shift that takes a hash to a slot of t.
func probeShift(t []uint64) uint { return 64 - uint(bits.TrailingZeros(uint(len(t)))) }

// AddLanes adds each n-gram's language masks into lanes: per table,
// one probe and two lane adds per n-gram.
func (k *probeKernel) AddLanes(lanes []uint64, gs []uint32) {
	for p, t := range k.tables {
		shift, last := probeShift(t), uint64(len(t)-1)
		lo, hi := lanes[2*p], lanes[2*p+1]
		for _, g := range gs {
			key := uint64(g)
			j := key * probeHash >> shift
			for t[j] != 0 && t[j]>>16 != key {
				j = (j + 1) & last
			}
			m := uint16(t[j])
			lo += spread[uint8(m)]
			hi += spread[m>>8]
		}
		lanes[2*p], lanes[2*p+1] = lo, hi
	}
}

// countFused is the fused datapath of §3.2–3.3 in one loop over the
// single mask plane: translate each byte, shift it into the n-gram
// register w, look the n-gram's language mask up and add it into the
// lane counters, with no n-gram stored on the way; counts gains the
// matches and the result is the number of n-grams p completes. While
// the register is not full, w.FeedBytes takes the bytes that fill it,
// which complete no n-gram. With AVX2, countGroups then counts whole
// 16-n-gram groups, up to maxGroups a call, and sumChunks adds their
// lane words; countLanes takes the rest, and all of it on any other
// CPU. A Stream runs it when the profile set fits one plane
// (Stream.configure).
func countFused(plane []uint16, w *ngram.Window, counts []int, p []byte) int {
	if k := min(w.N-1-w.Filled, len(p)); k > 0 {
		w.FeedBytes(nil, p[:k])
		p = p[k:]
	}
	grams := len(p)
	if useGroups && len(p) >= groupLen {
		var out [2 * maxGroups]uint64
		for len(p) >= groupLen {
			k := min(len(p)/groupLen, maxGroups)
			w.Reg = countGroups(plane, w.Reg, p[:k*groupLen], out[:2*k])
			p = p[k*groupLen:]
			sumChunks(counts, out[:2*k], 2)
		}
	}
	for len(p) > 0 {
		b := p[:min(len(p), laneFlush)]
		p = p[len(b):]
		var lo, hi uint64
		w.Reg, lo, hi = countLanes(plane, w.Reg, b)
		addLanes(counts, lo, hi)
	}
	return grams
}

// groupLen is the n-grams in one of countGroups' groups, and in one
// segmentation chunk; maxGroups is the most groups one call counts,
// and groupsPerFlush the most whose lane words add up in lanes.
const (
	groupLen       = 16
	maxGroups      = 64
	groupsPerFlush = laneFlush / groupLen
)

// countLanes is the Go loop: it shifts the bytes of b (at most
// laneFlush) through reg, whose N-1 earlier characters are in place,
// and returns the new register and the lane counts of the n-grams the
// bytes complete. Four characters per step: their codes form one
// 20-bit word q, reg = reg<<20 | q, and the step's four n-grams are
// read off reg by shifting, so the serial shift chain runs once per
// four characters. That is exact for every n <= 5 (the deepest read,
// 15+5n bits, fits in 64).
func countLanes(plane []uint16, reg uint64, b []byte) (_, lo, hi uint64) {
	mask := uint64(len(plane) - 1)
	i := 0
	for ; i+4 <= len(b); i += 4 {
		q := uint64(alphabet.Translate(b[i]))<<15 | uint64(alphabet.Translate(b[i+1]))<<10 |
			uint64(alphabet.Translate(b[i+2]))<<5 | uint64(alphabet.Translate(b[i+3]))
		reg = reg<<20 | q
		m0, m1, m2, m3 := plane[reg>>15&mask], plane[reg>>10&mask], plane[reg>>5&mask], plane[reg&mask]
		lo += spread[uint8(m0)] + spread[uint8(m1)] + spread[uint8(m2)] + spread[uint8(m3)]
		hi += spread[m0>>8] + spread[m1>>8] + spread[m2>>8] + spread[m3>>8]
	}
	for ; i < len(b); i++ {
		reg = reg<<alphabet.Bits | uint64(alphabet.Translate(b[i]))
		m := plane[reg&mask]
		lo += spread[uint8(m)]
		hi += spread[m>>8]
	}
	return reg, lo, hi
}

// chunkLanes sets out[2c] and out[2c+1] to the lane words of chunk c,
// the n-grams bytes 16c to 16c+15 of p complete, for each of the
// len(p)/16 chunks (at most maxGroups): through countGroups where it
// runs, else countLanes on the one mask plane, one chunk at a time,
// and feed (the lanes are clear between chunks) otherwise.
func (s *Stream) chunkLanes(p []byte, out []uint64) {
	if s.plane != nil && useGroups {
		s.w.Reg = countGroups(s.plane, s.w.Reg, p, out)
		return
	}
	for c := range len(p) / groupLen {
		b := p[c*groupLen:][:groupLen]
		if s.plane != nil {
			s.w.Reg, out[2*c], out[2*c+1] = countLanes(s.plane, s.w.Reg, b)
			continue
		}
		s.feed(b)
		out[2*c], out[2*c+1] = s.lanes[0], s.lanes[1]
		clear(s.lanes)
	}
}

// countChunks counts the whole chunks of p, at most maxGroups, on a
// lane stream with the register full and no chunk open: chunkLanes
// gives each chunk's two lane words, sumChunks adds them to the
// totals, and stepLanes takes their steps and writes their records
// into back.
func (s *Stream) countChunks(p []byte, back []uint64) {
	var out [2 * maxGroups]uint64
	rs := out[:2*len(p)/groupLen]
	s.chunkLanes(p, rs)
	sumChunks(s.totals, rs, 2)
	s.stepLanes(rs, back)
}

// stepLanes is a lane stream's one Viterbi step, taken for each chunk
// whose counts are a pair of lane words in rs. It writes the chunk's
// record into back (the arg-max, the switched bits, the two lane
// words); the caller adds the counts to the totals. The state is each
// language's deficit behind the best score, one byte lane each: every
// deficit is at most Penalty+16, so it fits, and one step is a few
// word operations on eight languages at a time, with the decisions of
// stepOpen's int step, ties included.
func (s *Stream) stepLanes(rs, back []uint64) {
	const ones, high = 0x0101010101010101, 0x8080808080808080
	// ge has 0x7f in each byte lane where x >= y (lanes below 128).
	ge := func(x, y uint64) uint64 { t := ((x | high) - y) & high; return t - t>>7 }
	max8 := func(x, y uint64) uint64 { return y ^ (x^y)&ge(x, y) }
	pen, best := uint64(s.cfg.Penalty)*ones, s.best
	d0, d1 := s.dl[0], s.dl[1]
	for len(rs) >= 2 && len(back) >= 4 {
		r0, r1 := rs[0], rs[1]
		// over has 0x80 in each lane whose deficit exceeds Penalty:
		// that language switches in, so its deficit clamps to Penalty.
		// u = new score − old best + Penalty, in [0, Penalty+16].
		over0 := ((d0 | high) - pen - ones) & high
		over1 := ((d1 | high) - pen - ones) & high
		u0 := pen - (d0 ^ (d0^pen)&(over0-over0>>7)) + r0
		u1 := pen - (d1 ^ (d1^pen)&(over1-over1>>7)) + r1
		const gather = 0x0002040810204081 // the 0x80 bits into one byte
		back[0], back[1] = uint64(best), over0*gather>>56|over1*gather>>56<<8
		back[2], back[3] = r0, r1
		rs, back = rs[2:], back[4:]
		// The top is usually still the old best's; the byte tree finds
		// it when another language has overtaken.
		ub := u0
		if best >= 8 {
			ub = u1
		}
		m := ub >> (best & 7 * 8) & 0xff
		if above := (m + 1) * ones; ge(u0, above)|ge(u1, above) != 0 {
			m = max8(u0, u1)
			m = max8(m, m>>32)
			m = max8(m, m>>16)
			m = max8(m, m>>8) & 0xff
		}
		// The new best is the lowest lane left with deficit 0.
		d0, d1 = m*ones-u0, m*ones-u1
		if z := (d0 - ones) &^ d0 & high; z != 0 {
			best = bits.TrailingZeros64(z) >> 3
		} else {
			best = 8 + bits.TrailingZeros64((d1-ones)&^d1&high)>>3
		}
	}
	s.dl, s.best = [2]uint64{d0, d1}, best
}
