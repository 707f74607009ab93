package core

import (
	"fmt"
	"math/bits"

	"bloomlang/internal/ngram"
)

// maskHistogramMin is the gram-slice length at which AccumulateInto
// switches from iterating each mask's set bits to histogramming mask
// bytes. The histogram path pays a fixed cost per call (clearing and
// expanding 2×256 bins, ~0.6 µs) that only a long slice amortizes;
// segmentation feeds 16-gram chunks, whole documents feed thousands of
// grams. Timing both paths on the ten paper languages over slices of
// 16 to 1024 grams puts the break-even between 128 and 192 grams.
const maskHistogramMin = 160

// maskPlaneLangs is the number of languages one uint16 mask plane holds.
const maskPlaneLangs = 16

// maskKernel is the exact fused membership kernel: HAIL's direct table
// (§2), generalised from one language per packed n-gram to a language
// bitmask per packed n-gram. planes[p][g] has bit b set iff language
// 16p+b's profile contains g, so scoring one n-gram against every
// language is a single table load per 16 languages.
type maskKernel struct {
	planes [][]uint16
}

// buildMaskKernel programs the mask planes from the profiles. The table
// is indexed by the packed n-gram, so its size is 2^Bits(N) entries per
// plane: 2 MiB at the paper's N=4, 64 MiB at N=5, 2 GiB at N=6 — past
// that point the blocked Bloom backend is the right structure.
func buildMaskKernel(cfg Config, ps *ProfileSet) (Kernel, error) {
	nBits := ngram.Bits(cfg.N)
	if cfg.N >= 6 {
		return nil, fmt.Errorf("core: direct backend needs a 2^%d-entry table per %d languages (%d MiB) at n=%d; use the blocked backend for n >= 6",
			nBits, maskPlaneLangs, (uint64(2)<<nBits)>>20, cfg.N)
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

// AccumulateInto adds each language's match count over gs into counts.
// Short slices walk each mask's set bits; long slices count how often
// each low and high mask byte occurs and expand the two histograms into
// per-language counts once, so the per-gram work is one load and two
// increments whatever the number of matching languages.
func (k *maskKernel) AccumulateInto(counts []int, gs []uint32) {
	for p, plane := range k.planes {
		base := p * maskPlaneLangs
		if len(gs) < maskHistogramMin {
			for _, g := range gs {
				for m := plane[g]; m != 0; m &= m - 1 {
					counts[base+bits.TrailingZeros16(m)]++
				}
			}
			continue
		}
		var lo, hi [256]int
		for _, g := range gs {
			m := plane[g]
			lo[m&0xff]++
			hi[m>>8]++
		}
		expandByteHistogram(counts[base:], &lo)
		if len(counts) > base+8 {
			expandByteHistogram(counts[base+8:], &hi)
		}
	}
}

// expandByteHistogram adds hist[b] to counts[j] for every bit j set in
// mask byte b.
func expandByteHistogram(counts []int, hist *[256]int) {
	for b := 1; b < 256; b++ {
		n := hist[b]
		if n == 0 {
			continue
		}
		for m := uint8(b); m != 0; m &= m - 1 {
			counts[bits.TrailingZeros8(m)] += n
		}
	}
}
