package ngram

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Gram is a packed n-gram: uint32 over the 5-bit alphabet, uint64 over
// the §3.3 wide one.
type Gram interface{ ~uint32 | ~uint64 }

// Entry is an n-gram with its frequency, used when ranking.
type Entry[G Gram] struct {
	Gram  G
	Count uint64
}

// compareEntries orders entries best first: count descending, then
// packed n-gram ascending. Over distinct n-grams it is a total order,
// so a ranking by it is deterministic.
func compareEntries[G Gram](a, b Entry[G]) int {
	if c := cmp.Compare(b.Count, a.Count); c != 0 {
		return c
	}
	return cmp.Compare(a.Gram, b.Gram)
}

// rank returns the t best of the distinct n-grams grams[i] with a
// nonzero count counts[i], best first by compareEntries: exactly the
// first t of a full sort. counts may be shorter than grams; the n-grams
// past its end count zero. rank selects rather than sorts: it finds the
// t-th best count in a pass or two over counts (cut), collects the
// n-grams above it, and takes from the ones tied at it the smallest
// n-grams by the same selection over their values; only those t
// winners are sorted.
func rank[G Gram](grams []G, counts []uint64, t int) []Entry[G] {
	if t <= 0 {
		return []Entry[G]{}
	}
	c, above, at := cut(counts, t)
	win := make([]Entry[G], 0, min(t, above+at))
	ties := make([]uint64, 0, at)
	for i, n := range counts {
		switch {
		case n > c:
			win = append(win, Entry[G]{grams[i], n})
		case n == c && n > 0:
			ties = append(ties, uint64(grams[i]))
		}
	}
	if need := t - above; len(ties) > need {
		// The need smallest of the tied n-grams: those up to the
		// need-th smallest, the (len(ties)-need+1)-th largest.
		g, _, _ := cut(ties, len(ties)-need+1)
		ties = slices.DeleteFunc(ties, func(v uint64) bool { return v > g })
	}
	for _, g := range ties {
		win = append(win, Entry[G]{G(g), c})
	}
	sortEntries(win)
	return win
}

// digitBits is the width of the digit cut refines per pass.
const digitBits = 11

// cut returns the k-th largest (k >= 1) of vs, counting repeats, how
// many of vs are larger than it and how many equal it. If vs holds
// fewer than k nonzero values it returns 0, the number of nonzero ones
// and 0. It is a radix selection: one pass finds the cut's bit length,
// and each further pass fixes the next digitBits bits below it among
// the values that share the bits fixed so far, so counts under 2^12
// take two passes.
func cut(vs []uint64, k int) (c uint64, above, at int) {
	var lens [65]int
	for _, v := range vs {
		lens[bits.Len64(v)]++
	}
	b := 64
	for ; b > 0 && above+lens[b] < k; b-- {
		above += lens[b]
	}
	if b == 0 {
		return 0, above, 0
	}
	// The cut's top set bit is bit b-1; low bits below it are open.
	c, at = 1, lens[b]
	for low := uint(b - 1); low > 0; {
		d := min(low, digitBits)
		low -= d
		var hist [1 << digitBits]int
		for _, v := range vs {
			if v>>(low+d) == c {
				hist[v>>low&(1<<d-1)]++
			}
		}
		x := 1<<d - 1
		for ; above+hist[x] < k; x-- {
			above += hist[x]
		}
		c, at = c<<d|uint64(x), hist[x]
	}
	return c, above, at
}

// sortEntries sorts es best first by compareEntries. When every count
// and n-gram fits in 32 bits, as in any real profile, it sorts one
// packed word per entry instead, the inverted count above the n-gram,
// with native compares: half the time of calling compareEntries.
func sortEntries[G Gram](es []Entry[G]) {
	keys := make([]uint64, len(es))
	for i, e := range es {
		if uint64(e.Gram) > math.MaxUint32 || e.Count > math.MaxUint32 {
			slices.SortFunc(es, compareEntries)
			return
		}
		keys[i] = (math.MaxUint32-e.Count)<<32 | uint64(e.Gram)
	}
	slices.Sort(keys)
	for i, k := range keys {
		es[i] = Entry[G]{G(uint32(k)), math.MaxUint32 - k>>32}
	}
}
