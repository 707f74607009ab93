package ngram

import (
	"math"
	"math/bits"
	"slices"
)

// entry is an n-gram with its frequency, used when ranking.
type entry struct {
	gram, count uint32
}

// scratch is ranking's working memory: the winners, the n-grams tied
// at the cut, and the packed keys sortEntries sorts with their second
// buffer. Reused across rankings, it leaves a ranking nothing to
// allocate.
type scratch struct {
	win       []entry
	ties      []uint32
	keys, tmp []uint64
}

// Ranker ranks many Counters through one working memory: after its
// first ranking, a Profile allocates only the profile. The zero Ranker
// is ready to use. A Ranker is not safe for concurrent use; give each
// goroutine its own.
type Ranker struct {
	s scratch
}

// rank returns the t best of the distinct n-grams grams[i] with a
// nonzero count counts[i], best first: count descending, then packed
// n-gram ascending, exactly the first t of a full sort by that total
// order. counts may be shorter than grams; the n-grams past its end
// count zero. rank selects rather than sorts: it finds the t-th best
// count in a pass or two over counts (cut), collects the n-grams above
// it, and takes from the ones tied at it the smallest n-grams by the
// same selection over their values; only those t winners are sorted.
// The result is s.win, valid until s ranks again.
func rank(s *scratch, grams, counts []uint32, t int) []entry {
	if t <= 0 {
		return []entry{}
	}
	c, above, at := cut(counts, t)
	win, ties := slices.Grow(s.win[:0], min(t, above+at)), slices.Grow(s.ties[:0], at)
	for i, n := range counts {
		switch {
		case n > c:
			win = append(win, entry{grams[i], n})
		case n == c && n > 0:
			ties = append(ties, grams[i])
		}
	}
	if need := t - above; len(ties) > need {
		// The need smallest of the tied n-grams: those up to the
		// need-th smallest, the (len(ties)-need+1)-th largest.
		g, _, _ := cut(ties, len(ties)-need+1)
		ties = slices.DeleteFunc(ties, func(v uint32) bool { return v > g })
	}
	for _, g := range ties {
		win = append(win, entry{g, c})
	}
	s.win, s.ties = win, ties
	s.sortEntries(win)
	return win
}

// digitBits is the width of the digit cut refines, and the radix sort
// in sortEntries orders by, per pass.
const digitBits = 11

// cut returns the k-th largest (k >= 1) of vs, counting repeats, how
// many of vs are larger than it and how many equal it. If vs holds
// fewer than k nonzero values it returns 0, the number of nonzero ones
// and 0. It is a radix selection: one pass finds the cut's bit length,
// and each further pass fixes the next digitBits bits below it among
// the values that share the bits fixed so far, so counts under 2^12
// take two passes.
func cut(vs []uint32, k int) (c uint32, above, at int) {
	var lens [33]int
	for _, v := range vs {
		lens[bits.Len32(v)]++
	}
	b := 32
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
		c, at = c<<d|uint32(x), hist[x]
	}
	return c, above, at
}

// sortEntries sorts es best first, count descending then n-gram
// ascending: it sorts one packed word per entry, the inverted count
// above the n-gram, by an LSD radix sort of digitBits per pass that
// skips every digit all the keys share.
func (s *scratch) sortEntries(es []entry) {
	keys := slices.Grow(s.keys[:0], len(es))
	var diff uint64
	for _, e := range es {
		k := uint64(math.MaxUint32-e.count)<<32 | uint64(e.gram)
		keys = append(keys, k)
		diff |= k ^ keys[0]
	}
	tmp := slices.Grow(s.tmp[:0], len(keys))[:len(keys)]
	for low := uint(0); low < 64; low += digitBits {
		if diff>>low&(1<<digitBits-1) == 0 {
			continue
		}
		var at [1 << digitBits]int
		for _, k := range keys {
			at[k>>low&(1<<digitBits-1)]++
		}
		sum := 0
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		for _, k := range keys {
			d := k >> low & (1<<digitBits - 1)
			tmp[at[d]] = k
			at[d]++
		}
		keys, tmp = tmp, keys
	}
	s.keys, s.tmp = keys, tmp
	for i, k := range keys {
		es[i] = entry{uint32(k), math.MaxUint32 - uint32(k>>32)}
	}
}
