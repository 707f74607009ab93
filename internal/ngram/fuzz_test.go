package ngram

import (
	"bytes"
	"cmp"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"bloomlang/internal/alphabet"
)

// FuzzExtractBytes checks the extractor on arbitrary byte streams: the
// n-gram count invariant must hold for any input, and the fused
// byte-level window must give exactly the n-grams of the staged
// reference, translation first and the code-level window after it.
func FuzzExtractBytes(f *testing.F) {
	f.Add([]byte("hello world"), 4)
	f.Add([]byte{}, 1)
	f.Add([]byte{0xFF, 0x00, 0xC3, 0x7F}, 6)
	f.Add([]byte("\x80\x9f\xa0\xc0\xc9\xd0\xdf\xe0\xe9\xf1\xfc\xff caf\xe9 \xc3\xa9t\xc3\xa9"), 3)
	f.Fuzz(func(t *testing.T, text []byte, n int) {
		gs, err := ExtractBytes(text, n)
		if err != nil {
			if n >= 1 && n <= MaxN {
				t.Fatalf("valid n=%d rejected: %v", n, err)
			}
			return
		}
		if len(gs) != Count(len(text), n) {
			t.Fatalf("extracted %d n-grams from %d bytes at n=%d, want %d",
				len(gs), len(text), n, Count(len(text), n))
		}
		mask := uint64(1)<<Bits(n) - 1
		for _, g := range gs {
			if uint64(g) > mask {
				t.Fatalf("gram %#x exceeds %d-bit packing", g, Bits(n))
			}
		}
		if want := (&Window{N: n}).Feed(nil, alphabet.TranslateAll(text)); !slices.Equal(gs, want) {
			t.Fatalf("n=%d: ExtractBytes %v, staged reference %v", n, gs, want)
		}
	})
}

// FuzzFeedBytes checks the shift loop across chunk splits: one Window
// fed the text in pieces, one of 0..7 bytes per byte of splits (so cuts
// fall inside the register's warm-up, and empty pieces occur) and then
// the rest whole, must append exactly the n-grams of the staged
// reference fed the whole text at once, after what dst held already,
// and end in the same state. An Extractor subsampling 1 in 1..3, fed
// the same pieces, must append every sub-th n-gram of that reference,
// its cycle carried across the cuts.
func FuzzFeedBytes(f *testing.F) {
	f.Add([]byte("hello world"), uint8(3), uint8(0), []byte{1, 2, 3})
	f.Add([]byte("ab"), uint8(5), uint8(1), []byte{0, 1})
	f.Add([]byte("\x80\xe9t\xe9 caf\xe9, na\xefve"), uint8(5), uint8(2), []byte{7, 0, 3, 6})
	f.Add([]byte{}, uint8(0), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, text []byte, n, sub uint8, splits []byte) {
		w := Window{N: int(n)%MaxN + 1}
		e, err := NewExtractor(w.N)
		if err != nil {
			t.Fatal(err)
		}
		s := int(sub)%3 + 1
		if err := e.SetSubsample(s); err != nil {
			t.Fatal(err)
		}
		ref := w
		full := ref.Feed(nil, alphabet.TranslateAll(text))
		want, wantSub := append([]uint32{7}, full...), []uint32{7}
		for i := 0; i < len(full); i += s {
			wantSub = append(wantSub, full[i])
		}
		got, gotSub, rest := []uint32{7}, []uint32{7}, text
		for _, c := range splits {
			k := min(len(rest), int(c%8))
			got = w.FeedBytes(got, rest[:k])
			gotSub, rest = e.Feed(gotSub, alphabet.TranslateAll(rest[:k])), rest[k:]
		}
		got = w.FeedBytes(got, rest)
		gotSub = e.Feed(gotSub, alphabet.TranslateAll(rest))
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d splits %v: FeedBytes %v, staged reference %v", w.N, splits, got, want)
		}
		if w != ref {
			t.Fatalf("n=%d splits %v: window ends %+v, reference %+v", w.N, splits, w, ref)
		}
		if !slices.Equal(gotSub, wantSub) {
			t.Fatalf("n=%d sub=%d splits %v: Extractor %v, every sub-th reference n-gram %v", w.N, s, splits, gotSub, wantSub)
		}
	})
}

// fullSortTop is the brute-force ranking rank must reproduce: every
// entry, sorted by count descending then packed n-gram ascending, cut
// to the first t.
func fullSortTop(counts map[uint32]uint32, t int) []entry {
	all := make([]entry, 0, len(counts))
	for g, n := range counts {
		all = append(all, entry{g, n})
	}
	slices.SortFunc(all, func(a, b entry) int {
		return cmp.Or(cmp.Compare(b.count, a.count), cmp.Compare(a.gram, b.gram))
	})
	return all[:max(0, min(t, len(all)))]
}

// rankCuts are the profile sizes checked against d distinct n-grams:
// none, one, about half, d-1, d, and more than d.
func rankCuts(d int) []int { return []int{0, 1, d / 2, d - 1, d, d + 1, 2*d + 5} }

// counterOf builds the Counter rank ranks for counts, shaped as in a
// shared vocabulary: every n-gram is numbered after one this language
// never saw (count 0), and other languages numbered more n-grams past
// the end of its counts.
func counterOf(counts map[uint32]uint32) *Counter {
	v := &Vocabulary{}
	c := &Counter{v: v}
	for g, n := range counts {
		v.grams = append(v.grams, g|1<<24, g)
		c.counts = append(c.counts, 0, n)
	}
	v.grams = append(v.grams, 1<<25, 1<<25+1)
	return c
}

// FuzzCounterBytes checks the training counter, Counter.AddBytes,
// against ExtractBytes and a map count at n = 2..6: the fuzzer's text
// is cut at random points into separate calls that carry one Window.
// At n = 4 the vocabulary starts with close to 65535 other n-grams
// numbered, so the text's new ones widen the index, mid-call or at a
// cut; at n = 2 and 3 the preset fills part of the flat index, at
// n = 5 and 6 part of the map.
func FuzzCounterBytes(f *testing.F) {
	// n = 2 + the second argument mod 5.
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(2), uint8(3), uint64(1))
	f.Add([]byte{}, uint8(0), uint8(0), uint64(0))
	f.Add([]byte("\xe9t\xe9 \xff\x00 caf\xe9 abcdefghijklmnopqrstuvwxyz zyxwvutsrqponmlkjihgfedcba"), uint8(2), uint8(0), uint64(7))
	f.Add([]byte("lorem ipsum dolor sit amet"), uint8(1), uint8(9), uint64(3))
	f.Add([]byte("lorem ipsum dolor sit amet"), uint8(3), uint8(9), uint64(5))
	f.Add(bytes.Repeat([]byte("aab abba "), 40), uint8(4), uint8(200), uint64(42))
	f.Fuzz(func(t *testing.T, text []byte, n, short uint8, seed uint64) {
		n = 2 + n%5
		v, err := NewVocabulary(int(n))
		if err != nil {
			t.Fatal(err)
		}
		// Number preset n-grams no text counts: their last code is one
		// of 27..31, which no byte translates to.
		preset := 1<<16 - 1 - int(short%64)
		if n < 4 {
			preset = 1 << Bits(int(n)) / 8
		}
		for i := range preset {
			g := uint32(i/5)<<alphabet.Bits | 27 + uint32(i%5)
			switch {
			case v.index16 != nil:
				v.index16[g] = uint16(v.number())
			default:
				v.ids[g] = v.number()
			}
		}
		c := v.NewCounter()
		w := Window{N: int(n)}
		r := rand.New(rand.NewPCG(seed, uint64(len(text))))
		for rest := text; len(rest) > 0; {
			k := r.IntN(len(rest) + 1)
			if err := c.AddBytes(&w, rest[:k]); err != nil {
				t.Fatal(err)
			}
			rest = rest[k:]
		}
		gs, _ := ExtractBytes(text, int(n))
		want := countsOfGrams(gs)
		got := map[uint32]uint32{}
		for id, k := range c.counts {
			if k != 0 {
				got[v.numbered()[id]] = k
			}
		}
		if !maps.Equal(got, want) || c.Total() != uint64(len(gs)) {
			t.Fatalf("n=%d: counts %v (total %d), want %v (total %d)", n, got, c.Total(), want, len(gs))
		}
		if v.size != preset+len(want) {
			t.Fatalf("n=%d: %d n-grams numbered, want %d preset and %d counted", n, v.size, preset, len(want))
		}
		if wide := v.size > 1<<16-1; n == 4 && (v.index32 != nil) != wide {
			t.Fatalf("n=4: %d n-grams numbered, widened %t", v.size, v.index32 != nil)
		}
	})
}

// FuzzTopT checks the top-t ranking, rank and Ranker.Profile, against
// a brute-force full sort. Each 3-byte record of data adds a count to a
// 16-bit n-gram; counts are drawn from 1..levels%8+1, so heavy ties
// only the packed n-gram breaks are the rule, also at the cut. One
// Ranker ranks every cut of the counter and of a second one over every
// other n-gram in turn, so each ranking starts from the scratch the one
// before it left.
func FuzzTopT(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0))
	f.Add([]byte{}, uint8(3))
	f.Add(bytes.Repeat([]byte{9, 0, 1, 9, 1, 2, 3, 3, 3}, 30), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, the end"), uint8(7))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 1, 2, 9}, uint8(129))
	f.Fuzz(func(t *testing.T, data []byte, levels uint8) {
		narrow, half := map[uint32]uint32{}, map[uint32]uint32{}
		for i := 0; i+2 < len(data); i += 3 {
			g := uint32(data[i])<<8 | uint32(data[i+1])
			n := uint32(data[i+2])%(uint32(levels%8)+1) + 1
			narrow[g] += n
			if g%2 == 0 {
				half[g] += n
			}
		}
		var r Ranker
		for _, k := range rankCuts(len(narrow)) {
			for _, counts := range []map[uint32]uint32{narrow, half} {
				c, want := counterOf(counts), fullSortTop(counts, k)
				if got := top(c, k); !slices.Equal(got, want) {
					t.Fatalf("t=%d of %d distinct: rank %v, full sort %v", k, len(counts), got, want)
				}
				p := r.Profile("xx", c, k)
				if len(p.Grams) != len(want) {
					t.Fatalf("t=%d of %d distinct: Ranker.Profile kept %d n-grams, full sort %d", k, len(counts), len(p.Grams), len(want))
				}
				for i, e := range want {
					if p.Grams[i] != e.gram {
						t.Fatalf("t=%d of %d distinct: Ranker.Profile %v, full sort %v", k, len(counts), p.Grams, want)
					}
				}
			}
		}
	})
}
