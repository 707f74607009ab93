package core

import (
	"fmt"
	"math/bits"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/ngram"
)

// The mask kernel counts with lane counters: each uint16 mask plane
// splits into a low and a high byte, spread[b] widens a mask byte into
// eight 8-bit lanes (lane j is 1 iff bit j of b is set), and adding
// spread values into two uint64 accumulators counts eight languages
// per add — a positional population count held in registers
// (Klarqvist, Muła & Lemire, arXiv:1911.02696). A lane holds at most
// 255, so the accumulators flush into the int counters at least once
// every laneFlush n-grams.

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

// addLanes sets dst to src plus the lane counts of one plane's low and
// high mask bytes, for the plane's up to 16 languages from the start
// of dst; dst and src may be the same slice.
func addLanes(dst, src []int, lo, hi uint64) {
	if len(dst) >= 8 {
		src = src[:len(dst)]
		dst[0], dst[1] = src[0]+int(uint8(lo)), src[1]+int(uint8(lo>>8))
		dst[2], dst[3] = src[2]+int(uint8(lo>>16)), src[3]+int(uint8(lo>>24))
		dst[4], dst[5] = src[4]+int(uint8(lo>>32)), src[5]+int(uint8(lo>>40))
		dst[6], dst[7] = src[6]+int(uint8(lo>>48)), src[7]+int(uint8(lo>>56))
		dst, src, lo = dst[8:], src[8:], hi
	}
	dst = dst[:min(len(dst), 8)]
	src = src[:len(dst)]
	for j := range dst {
		dst[j] = src[j] + int(uint8(lo))
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
func buildMaskKernel(cfg Config, ps *ProfileSet) (Kernel, error) {
	nBits := ngram.Bits(cfg.N)
	k := &maskKernel{planes: make([][]uint16, (len(ps.Profiles)+maskPlaneLangs-1)/maskPlaneLangs)}
	for p := range k.planes {
		k.planes[p] = ngram.NewTable(nBits)
	}
	for i, prof := range ps.Profiles {
		plane, bit := k.planes[i/maskPlaneLangs], uint16(1)<<(i%maskPlaneLangs)
		for _, g := range prof.Grams {
			if g>>nBits != 0 {
				return nil, gramError(cfg, prof, g)
			}
			plane[g] |= bit
		}
	}
	return k, nil
}

// gramError refuses profile n-gram g, which lies outside the packed
// n-gram space.
func gramError(cfg Config, prof *ngram.Profile, g uint32) error {
	return fmt.Errorf("core: profile %q holds n-gram %#x outside the %d-bit n=%d space", prof.Language, g, ngram.Bits(cfg.N), cfg.N)
}

// AccumulateInto adds each language's match count over gs into counts:
// per plane, one table load and two lane adds per n-gram, four n-grams
// per step so the adds form a tree instead of one serial chain.
func (k *maskKernel) AccumulateInto(counts []int, gs []uint32) {
	for p, plane := range k.planes {
		c := counts[p*maskPlaneLangs:]
		for rest := gs; len(rest) > 0; {
			b := rest[:min(len(rest), laneFlush)]
			rest = rest[len(b):]
			var lo, hi uint64
			i := 0
			for ; i+4 <= len(b); i += 4 {
				m0, m1, m2, m3 := plane[b[i]], plane[b[i+1]], plane[b[i+2]], plane[b[i+3]]
				lo += spread[uint8(m0)] + spread[uint8(m1)] + spread[uint8(m2)] + spread[uint8(m3)]
				hi += spread[m0>>8] + spread[m1>>8] + spread[m2>>8] + spread[m3>>8]
			}
			for ; i < len(b); i++ {
				m := plane[b[i]]
				lo += spread[uint8(m)]
				hi += spread[m>>8]
			}
			addLanes(c, c, lo, hi)
		}
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
func buildProbeKernel(cfg Config, ps *ProfileSet) (Kernel, error) {
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
				if g>>ngram.Bits(cfg.N) != 0 {
					return nil, gramError(cfg, prof, g)
				}
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
	return k, nil
}

// probeShift is the shift that takes a hash to a slot of t.
func probeShift(t []uint64) uint { return 64 - uint(bits.TrailingZeros(uint(len(t)))) }

// AccumulateInto adds each language's match count over gs into counts:
// per table, one probe and two lane adds per n-gram.
func (k *probeKernel) AccumulateInto(counts []int, gs []uint32) {
	for p, t := range k.tables {
		c := counts[p*maskPlaneLangs:]
		shift, last := probeShift(t), uint64(len(t)-1)
		for rest := gs; len(rest) > 0; {
			b := rest[:min(len(rest), laneFlush)]
			rest = rest[len(b):]
			var lo, hi uint64
			for _, g := range b {
				key := uint64(g)
				j := key * probeHash >> shift
				for t[j] != 0 && t[j]>>16 != key {
					j = (j + 1) & last
				}
				m := uint16(t[j])
				lo += spread[uint8(m)]
				hi += spread[m>>8]
			}
			addLanes(c, c, lo, hi)
		}
	}
}

// countFused is the fused datapath of §3.2–3.3 in one loop over the
// single mask plane: translate each byte, shift it into the n-gram
// register w, look the n-gram's language mask up and add it into the
// lane counters, with no n-gram stored on the way; counts gains the
// matches and the result is the number of n-grams p completes. The
// loop takes four characters per step: their codes form one 20-bit
// word q, w = w<<20 | q in a uint64, and the step's four n-grams are
// read off w by shifting, so the serial shift chain runs once per four
// characters. That is exact for every n <= 5 (the deepest read, 15+5n
// bits, fits in 64). A Stream runs it when the profile set fits one
// plane and nothing is subsampled (Stream.configure).
func countFused(plane []uint16, w *ngram.Window, counts []int, p []byte) int {
	reg, filled := w.Reg, w.Filled
	for ; filled < w.N-1 && len(p) > 0; filled++ {
		reg = reg<<alphabet.Bits | uint64(alphabet.Translate(p[0]))
		p = p[1:]
	}
	w.Filled = filled
	grams := len(p)
	for len(p) > 0 {
		b := p[:min(len(p), laneFlush)]
		p = p[len(b):]
		reg, _, _ = countLanes(plane, reg, b, counts, counts)
	}
	w.Reg = reg
	return grams
}

// countLanes is the fused loop's body: it shifts the bytes of b (at
// most laneFlush) through reg, whose N-1 earlier characters are in
// place, sets dst to src plus the lane counts of the n-grams the bytes
// complete, and returns the new register and the lane counts.
func countLanes(plane []uint16, reg uint64, b []byte, dst, src []int) (_, lo, hi uint64) {
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
	addLanes(dst, src, lo, hi)
	return reg, lo, hi
}

// countChunks counts whole chunks through the fused mask loop, with
// the register full and no chunk open, and takes their Viterbi steps.
// Each chunk's row comes out of the lane counters once, at its end, and
// is added to the row before it. The step runs on the lanes too, with
// Penalty+Stride below 128: every language's deficit behind the best
// score is then at most Penalty+Stride, so the deficits fit byte lanes,
// and one step is a few word operations on eight languages at a time —
// the same decisions as stepRows, ties included.
func (s *Stream) countChunks(plane []uint16, reg uint64, p []byte, rows []int, back []uint64) uint64 {
	L, stride := s.langs, s.cfg.Stride
	const ones, high = 0x0101010101010101, 0x8080808080808080
	// ge has 0x7f in each byte lane where x >= y (lanes below 128).
	ge := func(x, y uint64) uint64 { t := ((x | high) - y) & high; return t - t>>7 }
	max8 := func(x, y uint64) uint64 { return y ^ (x^y)&ge(x, y) }
	// Deficits per lane. A lane past the last language starts at 127,
	// at least Penalty, so it always switches in and scores 0.
	d := [2]uint64{^uint64(0) >> 1 &^ high, ^uint64(0) >> 1 &^ high}
	top := s.score[s.best]
	for l, v := range s.score[:L] {
		d[l>>3] ^= (0x7f ^ uint64(top-v)) << (l & 7 * 8)
	}
	pen, best := uint64(s.cfg.Penalty)*ones, s.best
	for ; len(back) > 0; back = back[2:] {
		var r [2]uint64
		reg, r[0], r[1] = countLanes(plane, reg, p[:stride], rows[L:][:L], rows)
		p = p[stride:]
		rows = rows[L:]
		// u = new score − old best + Penalty, in [0, Penalty+Stride].
		u, sw := [2]uint64{}, uint64(0)
		for i := range 2 {
			// 0x80 in each lane whose deficit exceeds Penalty: that
			// language switches in, so its deficit clamps to Penalty.
			over := ((d[i] | high) - pen - ones) & high
			sw |= over * 0x0002040810204081 >> 56 << (8 * i)
			u[i] = pen - (d[i] ^ (d[i]^pen)&(over-over>>7)) + r[i]
		}
		back[0], back[1] = uint64(best), sw
		// The top is usually still the old best's; the byte tree finds
		// it when another language has overtaken.
		m := u[best>>3] >> (best & 7 * 8) & 0xff
		if above := (m + 1) * ones; ge(u[0], above)|ge(u[1], above) != 0 {
			m = max8(u[0], u[1])
			m = max8(m, m>>32)
			m = max8(m, m>>16)
			m = max8(m, m>>8) & 0xff
		}
		top += int(m) - s.cfg.Penalty
		// The new best is the lowest lane left with deficit 0.
		d[0], d[1] = m*ones-u[0], m*ones-u[1]
		if z := (d[0] - ones) &^ d[0] & high; z != 0 {
			best = bits.TrailingZeros64(z) >> 3
		} else {
			best = 8 + bits.TrailingZeros64((d[1]-ones)&^d[1]&high)>>3
		}
	}
	for l := range s.score[:L] {
		s.score[l] = top - int(d[l>>3]>>(l&7*8)&0xff)
	}
	s.best = best
	return reg
}
