package ngram

import (
	"cmp"
	"iter"
	"math"
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

// worse reports whether a ranks after b, compareEntries(a, b) > 0.
func worse[G Gram](a, b Entry[G]) bool {
	return a.Count < b.Count || a.Count == b.Count && a.Gram > b.Gram
}

// topT returns the t best of the distinct n-grams all yields, best
// first by compareEntries: exactly the first t of a full sort. It keeps
// only the t best seen so far, in a heap with the worst of them at the
// root, so it never holds more than t entries, and sorts just those at
// the end. size is an upper bound on how many n-grams all yields, used
// to size the heap.
func topT[G Gram](t, size int, all iter.Seq2[G, uint64]) []Entry[G] {
	h := make([]Entry[G], 0, max(0, min(t, size)))
	if t <= 0 {
		return h
	}
	for g, n := range all {
		e := Entry[G]{g, n}
		switch {
		case len(h) < t:
			if h = append(h, e); len(h) == t {
				for i := t/2 - 1; i >= 0; i-- {
					siftDown(h, i)
				}
			}
		case worse(h[0], e):
			h[0] = e
			siftDown(h, 0)
		}
	}
	sortEntries(h)
	return h
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

// siftDown restores the heap order below h[i]: every entry ranks no
// better than its children, so the root is the worst kept.
func siftDown[G Gram](h []Entry[G], i int) {
	for {
		w := 2*i + 1
		if w >= len(h) {
			return
		}
		if r := w + 1; r < len(h) && worse(h[r], h[w]) {
			w = r
		}
		if !worse(h[w], h[i]) {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}
