package core

import (
	"fmt"

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

// flushLanes adds the lane counts of one plane's low and high mask
// bytes into that plane's slice of counters.
func flushLanes(counts []int, lo, hi uint64) {
	for j := range min(len(counts), 8) {
		counts[j] += int(lo >> (8 * j) & 0xff)
	}
	for j := range min(len(counts)-8, 8) {
		counts[8+j] += int(hi >> (8 * j) & 0xff)
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
// plane: 2 MiB at the paper's N=4, 64 MiB at N=5, 2 GiB at N=6.
const maxMaskN = 5

// ServingBackend is the backend a server runs for profiles trained
// under cfg: the exact mask table, or the paper's Parallel Bloom Filter
// when n is past what the table can hold.
func ServingBackend(cfg Config) Backend {
	if cfg.WithDefaults().N > maxMaskN {
		return BackendBloom
	}
	return BackendDirect
}

// buildMaskKernel programs the mask planes from the profiles.
func buildMaskKernel(cfg Config, ps *ProfileSet) (Kernel, error) {
	nBits := ngram.Bits(cfg.N)
	if cfg.N > maxMaskN {
		return nil, fmt.Errorf("core: direct backend needs a 2^%d-entry table per %d languages (%d MiB) at n=%d; use the parallel-bloom backend for n > %d",
			nBits, maskPlaneLangs, (uint64(2)<<nBits)>>20, cfg.N, maxMaskN)
	}
	size := uint32(1) << nBits
	k := &maskKernel{planes: make([][]uint16, (len(ps.Profiles)+maskPlaneLangs-1)/maskPlaneLangs)}
	for p := range k.planes {
		k.planes[p] = make([]uint16, size)
	}
	for i, prof := range ps.Profiles {
		plane, bit := k.planes[i/maskPlaneLangs], uint16(1)<<(i%maskPlaneLangs)
		for _, g := range prof.Grams {
			if g >= size {
				return nil, fmt.Errorf("core: profile %q holds n-gram %#x outside the %d-bit n=%d space", prof.Language, g, nBits, cfg.N)
			}
			plane[g] |= bit
		}
	}
	return k, nil
}

// Test reports whether language lang's profile contains g: one bit test.
func (k *maskKernel) Test(lang int, g uint32) bool {
	return k.planes[lang/maskPlaneLangs][g]>>(lang%maskPlaneLangs)&1 != 0
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
			flushLanes(c, lo, hi)
		}
	}
}

// Count is the fused datapath of §3.2–3.3 in one loop: translate each
// byte, shift it into the n-gram register, look the n-gram's language
// mask up and add it into the lane counters, with no n-gram stored on
// the way. The loop takes four characters per step: their codes form
// one 20-bit word q, w = w<<20 | q in a uint64, and the step's four
// n-grams are read off w by shifting, so the serial shift chain runs
// once per four characters. That is exact for every n <= 5 (the
// deepest read, 15+5n bits, fits in 64). Subsampled windows and
// profile sets of more than 16 languages take the block path.
func (k *maskKernel) Count(counts []int, w *Window, p []byte) int {
	if w.Subsample > 1 || len(k.planes) != 1 {
		return CountGrams(k, counts, w, p)
	}
	reg, filled := w.Reg, w.Filled
	for ; filled < w.N-1 && len(p) > 0; filled++ {
		reg = reg<<alphabet.Bits | uint64(alphabet.Translate(p[0]))
		p = p[1:]
	}
	w.Filled = filled
	grams := len(p)
	plane := k.planes[0]
	mask := uint64(len(plane) - 1)
	for len(p) > 0 {
		b := p[:min(len(p), laneFlush)]
		p = p[len(b):]
		var lo, hi uint64
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
		flushLanes(counts, lo, hi)
	}
	w.Reg = reg
	return grams
}
