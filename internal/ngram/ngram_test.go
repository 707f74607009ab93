package ngram

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"

	"bloomlang/internal/alphabet"
)

// render returns the human-readable form of a packed n-gram, e.g.
// "TION" or "E TH".
func render(g uint32, n int) string {
	b := make([]byte, n)
	for i := n - 1; i >= 0; i-- {
		b[i] = alphabet.Code(g & (1<<alphabet.Bits - 1)).Byte()
		g >>= alphabet.Bits
	}
	return string(b)
}

// top ranks c's t most frequent n-grams through a scratch of its own.
func top(c *Counter, t int) []entry {
	return rank(new(scratch), c.v.numbered(), c.counts, t)
}

func TestExtractorCount(t *testing.T) {
	for _, c := range []struct {
		text string
		n    int
		want int
	}{
		{"", 4, 0},
		{"abc", 4, 0},
		{"abcd", 4, 1},
		{"abcde", 4, 2},
		{"hello world", 4, 8},
		{"ab", 2, 1},
		{"a", 1, 1},
	} {
		gs, err := ExtractBytes([]byte(c.text), c.n)
		if err != nil {
			t.Fatal(err)
		}
		if len(gs) != c.want {
			t.Errorf("ExtractBytes(%q, %d) produced %d n-grams, want %d", c.text, c.n, len(gs), c.want)
		}
		if got := Count(len(c.text), c.n); got != c.want {
			t.Errorf("Count(%d, %d) = %d, want %d", len(c.text), c.n, got, c.want)
		}
	}
}

func TestExtractorSlidesOneCharacter(t *testing.T) {
	gs, err := ExtractBytes([]byte("abcdef"), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ABCD", "BCDE", "CDEF"}
	if len(gs) != len(want) {
		t.Fatalf("got %d n-grams, want %d", len(gs), len(want))
	}
	for i, w := range want {
		if got := render(gs[i], 4); got != w {
			t.Errorf("n-gram %d = %q, want %q", i, got, w)
		}
	}
}

func TestExtractorIgnoresWordBoundaries(t *testing.T) {
	// §3.3: "Our implementation is currently oblivious to word boundaries
	// and simply treats the input as a continuous stream of characters."
	gs, err := ExtractBytes([]byte("a b"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 0 {
		t.Fatalf("3-char input must give 0 4-grams, got %d", len(gs))
	}
	gs, _ = ExtractBytes([]byte("a bc"), 4)
	if len(gs) != 1 || render(gs[0], 4) != "A BC" {
		t.Fatalf("expected single n-gram \"A BC\" spanning the space, got %v", gs)
	}
}

func TestExtractorIncrementalFeedMatchesWhole(t *testing.T) {
	text := []byte("the quick brown fox jumps over the lazy dog")
	whole, err := ExtractBytes(text, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewExtractor(4)
	var inc []uint32
	codes := alphabet.TranslateAll(text)
	// Feed in unequal chunks: 1, 2, 3, ... characters at a time.
	for i, step := 0, 1; i < len(codes); step++ {
		end := i + step
		if end > len(codes) {
			end = len(codes)
		}
		inc = e.Feed(inc, codes[i:end])
		i = end
	}
	if len(inc) != len(whole) {
		t.Fatalf("incremental feed produced %d n-grams, whole produced %d", len(inc), len(whole))
	}
	for i := range inc {
		if inc[i] != whole[i] {
			t.Errorf("n-gram %d differs: %#x vs %#x", i, inc[i], whole[i])
		}
	}
}

func TestExtractorReset(t *testing.T) {
	e, _ := NewExtractor(4)
	codes := alphabet.TranslateAll([]byte("abcdef"))
	first := e.Feed(nil, codes)
	e.Reset()
	second := e.Feed(nil, codes)
	if len(first) != len(second) {
		t.Fatalf("after Reset, feed produced %d n-grams, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("n-gram %d differs after Reset", i)
		}
	}
}

func TestExtractorNoResetCarriesWindow(t *testing.T) {
	e, _ := NewExtractor(4)
	a := e.Feed(nil, alphabet.TranslateAll([]byte("ab")))
	b := e.Feed(nil, alphabet.TranslateAll([]byte("cd")))
	if len(a) != 0 {
		t.Fatalf("first partial feed must emit nothing, got %d", len(a))
	}
	if len(b) != 1 || render(b[0], 4) != "ABCD" {
		t.Fatalf("window must span feeds without Reset; got %d grams", len(b))
	}
}

func TestSubsample(t *testing.T) {
	e, _ := NewExtractor(4)
	if err := e.SetSubsample(2); err != nil {
		t.Fatal(err)
	}
	codes := alphabet.TranslateAll([]byte("abcdefgh")) // 5 4-grams
	gs := e.Feed(nil, codes)
	// Positions 0,2,4 survive a 1-in-2 subsample.
	want := []string{"ABCD", "CDEF", "EFGH"}
	if len(gs) != len(want) {
		t.Fatalf("subsampled count = %d, want %d", len(gs), len(want))
	}
	for i, w := range want {
		if got := render(gs[i], 4); got != w {
			t.Errorf("subsampled n-gram %d = %q, want %q", i, got, w)
		}
	}
	if err := e.SetSubsample(0); err == nil {
		t.Error("SetSubsample(0) succeeded, want error")
	}
}

func TestNewExtractorValidation(t *testing.T) {
	if _, err := NewExtractor(0); err == nil {
		t.Error("NewExtractor(0) succeeded")
	}
	if _, err := NewExtractor(MaxN + 1); err == nil {
		t.Errorf("NewExtractor(%d) succeeded", MaxN+1)
	}
	if _, err := NewExtractor(MaxN); err != nil {
		t.Errorf("NewExtractor(%d): %v", MaxN, err)
	}
}

// newCounter returns a Counter over a vocabulary of its own.
func newCounter(t *testing.T, n int) *Counter {
	t.Helper()
	v, err := NewVocabulary(n)
	if err != nil {
		t.Fatal(err)
	}
	return v.NewCounter()
}

// addText counts one whole document through AddBytes, in a window of
// its own.
func (c *Counter) addText(text []byte) error {
	w := Window{N: c.v.n}
	return c.AddBytes(&w, text)
}

// countsOf reads every count of c back through an unbounded ranking.
func countsOf(c *Counter) map[uint32]uint32 {
	m := map[uint32]uint32{}
	for _, e := range top(c, math.MaxInt) {
		m[e.gram] = e.count
	}
	return m
}

func TestCounterFlatAndMapAgree(t *testing.T) {
	// n=4 indexes the vocabulary with the flat table, n=5 with the map;
	// both must count identically.
	text := []byte("the theme of the thesis is the theory of the the")
	for _, n := range []int{4, 5} {
		c := newCounter(t, n)
		if n == 4 && c.v.index16 == nil || n == 5 && c.v.ids == nil {
			t.Fatalf("n=%d: vocabulary not indexed as expected", n)
		}
		c.addText(text)
		gs, _ := ExtractBytes(text, n)
		if c.Total() != uint64(len(gs)) {
			t.Errorf("n=%d: Total = %d, want %d", n, c.Total(), len(gs))
		}
		// Recount by brute force.
		ref := countsOfGrams(gs)
		if got := countsOf(c); !maps.Equal(got, ref) {
			t.Errorf("n=%d: counts %v, want %v", n, got, ref)
		}
	}
}

func TestCounterTopOrdering(t *testing.T) {
	c := newCounter(t, 4)
	// "aaaa" appears 3 times (sliding), "bbbb" 1, via carefully built text.
	c.addText([]byte("aaaaaa")) // AAAA x3
	c.addText([]byte("bbbb"))   // BBBB x1
	best := top(c, 10)
	if len(best) != 2 {
		t.Fatalf("top returned %d entries, want 2", len(best))
	}
	if render(best[0].gram, 4) != "AAAA" || best[0].count != 3 {
		t.Errorf("top[0] = %q x%d, want AAAA x3", render(best[0].gram, 4), best[0].count)
	}
	if render(best[1].gram, 4) != "BBBB" || best[1].count != 1 {
		t.Errorf("top[1] = %q x%d, want BBBB x1", render(best[1].gram, 4), best[1].count)
	}
}

func TestCounterTopTruncatesAndTieBreaks(t *testing.T) {
	c := newCounter(t, 4)
	c.addText([]byte("abcd"))
	c.addText([]byte("bcde"))
	c.addText([]byte("cdef"))
	best := top(c, 2)
	if len(best) != 2 {
		t.Fatalf("top(2) returned %d entries", len(best))
	}
	// All counts equal 1; ties break on ascending packed value, and
	// ABCD < BCDE numerically because A<B in the code space.
	if render(best[0].gram, 4) != "ABCD" {
		t.Errorf("tie-break order wrong: top[0] = %q", render(best[0].gram, 4))
	}
	if got := top(c, 0); len(got) != 0 {
		t.Errorf("top(0) returned %d entries", len(got))
	}
	if got := top(c, -1); len(got) != 0 {
		t.Errorf("top(-1) returned %d entries", len(got))
	}
}

// TestCounterAddBytesSplitMatchesWhole: counting a document one byte
// per AddBytes call, the window carried across the calls, gives the
// counts of one addText over all of it.
func TestCounterAddBytesSplitMatchesWhole(t *testing.T) {
	doc := []byte("counting n-grams one at a time")
	for _, n := range []int{1, 4, 5} {
		a, b := newCounter(t, n), newCounter(t, n)
		w := Window{N: n}
		for i := range doc {
			a.AddBytes(&w, doc[i:i+1])
		}
		b.addText(doc)
		if a.Total() != b.Total() {
			t.Fatalf("n=%d: totals differ: %d vs %d", n, a.Total(), b.Total())
		}
		if ca, cb := countsOf(a), countsOf(b); !maps.Equal(ca, cb) {
			t.Errorf("n=%d: counts differ: %v vs %v", n, ca, cb)
		}
	}
}

// TestCountersShareVocabulary: languages counted over one vocabulary,
// their documents interleaved so each sees numbers the others added,
// count exactly what each counts over a vocabulary of its own.
func TestCountersShareVocabulary(t *testing.T) {
	docs := [][]string{
		{"the cat sat on the mat", "then the thing", "x"},
		{"el gato se sienta", "", "en la alfombra del gato"},
		{"the gato", "kissa istuu matolla", "the the the"},
	}
	for _, n := range []int{3, 4, 5} {
		v, err := NewVocabulary(n)
		if err != nil {
			t.Fatal(err)
		}
		shared := make([]*Counter, len(docs))
		for l := range docs {
			shared[l] = v.NewCounter()
		}
		for d := range docs[0] {
			for l := range docs {
				shared[l].addText([]byte(docs[l][d]))
			}
		}
		for l := range docs {
			own := newCounter(t, n)
			for _, doc := range docs[l] {
				own.addText([]byte(doc))
			}
			if got, want := countsOf(shared[l]), countsOf(own); !maps.Equal(got, want) {
				t.Errorf("n=%d language %d: shared-vocabulary counts %v, own %v", n, l, got, want)
			}
			if shared[l].Total() != own.Total() {
				t.Errorf("n=%d language %d: Total %d, want %d", n, l, shared[l].Total(), own.Total())
			}
		}
	}
}

// TestVocabularyWidens counts more than 65535 distinct n-grams, the
// most the uint16 index numbers, with the AddBytes call that crosses
// the limit cut so the vocabulary holds 65534, 65535 or 65536 n-grams
// after it: the index widens within a call, in the next one's first
// new n-gram, and a little way into it. Two more cuts put the n-gram
// that widens the index at the edges of AddBytes' 256-byte blocks:
// first in the next call's second block, and last in its first. A
// second language counts n-grams on both sides of the widening. Counts
// and ranking equal a map-based count throughout.
func TestVocabularyWidens(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	text := make([]byte, 200_000)
	for i := range text {
		text[i] = byte('a' + r.IntN(26))
	}
	gs, _ := ExtractBytes(text, 4)
	// first[k] is the index of the n-gram that is the (k+1)th distinct.
	var first []int
	seen := map[uint32]bool{}
	for i, g := range gs {
		if !seen[g] {
			seen[g] = true
			first = append(first, i)
		}
	}
	if len(first) <= 1<<16 {
		t.Fatalf("only %d distinct n-grams", len(first))
	}
	// Every n-gram of other holds a space, so none is one of text's.
	other := []byte(" o t h e r  l a n g u a g e ")
	check := func(when string, c *Counter, counted []uint32) {
		t.Helper()
		ref := countsOfGrams(counted)
		if got := countsOf(c); !maps.Equal(got, ref) {
			t.Fatalf("%s: counts differ from a map count (%d vs %d n-grams)", when, len(got), len(ref))
		}
		if got, want := top(c, 500), fullSortTop(ref, 500); !slices.Equal(got, want) {
			t.Fatalf("%s: top(c, 500) differs from a full sort", when)
		}
		if c.Total() != uint64(len(counted)) {
			t.Fatalf("%s: Total %d, want %d", when, c.Total(), len(counted))
		}
	}
	otherGrams, _ := ExtractBytes(other, 4)
	otherDistinct := len(countsOfGrams(otherGrams))
	head, _ := ExtractBytes(other[:8], 4)
	headDistinct := len(countsOfGrams(head)) // numbered before text's
	// numbering returns the bytes of text that take the vocabulary to
	// split n-grams.
	numbering := func(split int) int { return first[split-headDistinct-1] + 4 }
	widening := numbering(1<<16) - 1 // the last byte of the 65536th
	for _, end := range []int{numbering(1<<16 - 2), numbering(1<<16 - 1), numbering(1 << 16), widening - 256, widening - 255} {
		v, err := NewVocabulary(4)
		if err != nil {
			t.Fatal(err)
		}
		a, b := v.NewCounter(), v.NewCounter()
		var wa, wb Window
		wa.N, wb.N = 4, 4
		b.AddBytes(&wb, other[:8])
		a.AddBytes(&wa, text[:end])
		distinct, _ := slices.BinarySearch(first, end-3)
		numbered := headDistinct + distinct
		if wide := numbered > 1<<16-1; (v.index32 != nil) != wide || (v.index16 != nil) == wide || v.size != numbered {
			t.Fatalf("cut %d: %d n-grams numbered, want %d, index16 %t, index32 %t", end, v.size, numbered, v.index16 != nil, v.index32 != nil)
		}
		check(fmt.Sprintf("cut %d, before", end), a, gs[:end-3])
		a.AddBytes(&wa, text[end:])
		b.AddBytes(&wb, other[8:])
		if v.index16 != nil || v.index32 == nil || v.size != len(first)+otherDistinct {
			t.Fatalf("cut %d: %d n-grams numbered, index not widened", end, v.size)
		}
		check(fmt.Sprintf("cut %d, after", end), a, gs)
		check(fmt.Sprintf("cut %d, other language", end), b, otherGrams)
	}
}

// countsOfGrams counts gs in a map.
func countsOfGrams(gs []uint32) map[uint32]uint32 {
	m := map[uint32]uint32{}
	for _, g := range gs {
		m[g]++
	}
	return m
}

// TestCounterRefusesPastMaxTotal: a batch or document whose n-grams
// would take a Counter's total past MaxTotal is refused whole, leaving
// the counts and the total as they were; one that reaches it exactly
// is counted.
func TestCounterRefusesPastMaxTotal(t *testing.T) {
	c := newCounter(t, 4)
	c.addText([]byte("abcdef"))
	before := countsOf(c)
	PresetTotal(c, MaxTotal-4)
	doc := []byte("abcdefgh") // 5 n-grams
	if err := c.addText(doc); err == nil {
		t.Fatal("addText past MaxTotal succeeded")
	}
	w := Window{N: 4}
	if err := c.AddBytes(&w, doc[:3]); err != nil { // no n-gram yet
		t.Fatalf("AddBytes of a warm-up: %v", err)
	}
	if err := c.AddBytes(&w, doc[3:]); err == nil || w.Filled != 3 {
		t.Fatalf("AddBytes past MaxTotal = %v, window %+v", err, w)
	}
	if got := countsOf(c); !maps.Equal(got, before) || c.Total() != MaxTotal-4 {
		t.Fatalf("a refused batch changed the counter: %v, total %d", got, c.Total())
	}
	if err := c.addText(doc[:7]); err != nil {
		t.Fatalf("addText up to MaxTotal: %v", err)
	}
	if c.Total() != MaxTotal {
		t.Fatalf("Total %d, want %d", c.Total(), uint64(MaxTotal))
	}
}

// TestNewTableHasOneOwner: goroutines take tables, check each is
// zeroed and held by no one else, scribble on it and hand it back
// through a Vocabulary's Release, many times over. The one spare goes
// to one taker at a time; under -race a table with two owners is also
// a data race.
func TestNewTableHasOneOwner(t *testing.T) {
	const bits = 10
	var mu sync.Mutex
	held := map[*uint16]bool{}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 500 {
				tab := NewTable(bits)
				mu.Lock()
				twice := held[&tab[0]]
				held[&tab[0]] = true
				mu.Unlock()
				if twice {
					t.Error("NewTable handed out a table already held")
					return
				}
				if slices.ContainsFunc(tab, func(x uint16) bool { return x != 0 }) {
					t.Error("NewTable handed out a table that is not zeroed")
					return
				}
				for i := range tab {
					tab[i] = uint16(w + 1)
				}
				mu.Lock()
				delete(held, &tab[0])
				mu.Unlock()
				(&Vocabulary{index16: tab}).Release()
			}
		}()
	}
	wg.Wait()
}

func BenchmarkExtract64KiB(b *testing.B) {
	text := make([]byte, 64*1024)
	for i := range text {
		text[i] = byte('a' + i%26)
	}
	codes := alphabet.TranslateAll(text)
	e, _ := NewExtractor(4)
	dst := make([]uint32, 0, len(text))
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		dst = e.Feed(dst[:0], codes)
	}
}

// TestCounterN: a profile built from a Counter carries its
// vocabulary's n-gram length, and a vocabulary refuses a length that
// does not pack.
func TestCounterN(t *testing.T) {
	c := newCounter(t, 5)
	c.addText([]byte("abcdefg"))
	if p := new(Ranker).Profile("xx", c, 10); p.N != 5 {
		t.Fatalf("profile N = %d, want 5", p.N)
	}
	for _, n := range []int{0, MaxN + 1} {
		if _, err := NewVocabulary(n); err == nil {
			t.Errorf("NewVocabulary(%d) succeeded", n)
		}
	}
}

// TestWindowFeedBytesMatchesFeed checks the byte-level window against
// the code-level one: any split of a document, the same n-grams with
// the register carried across pieces.
func TestWindowFeedBytesMatchesFeed(t *testing.T) {
	doc := []byte("Þe quick brown fox, ¿jumps? över the lazy dog 12345 \x00\xff")
	for n := 1; n <= MaxN; n++ {
		w := Window{N: n}
		want := w.Feed(nil, alphabet.TranslateAll(doc))
		for cut := 0; cut <= len(doc); cut++ {
			w.Reset()
			got := w.FeedBytes(nil, doc[:cut])
			got = w.FeedBytes(got, doc[cut:])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d cut %d: FeedBytes %v, Feed %v", n, cut, got, want)
			}
		}
	}
}

// TestWindowBytesFor checks that from any register state, BytesFor(g)
// bytes complete exactly g n-grams, the last on the final byte.
func TestWindowBytesFor(t *testing.T) {
	text := []byte("abcdefghijklmnopqrstuvwxyz abcdefghijklmnopqrstuvwxyz")
	for n := 1; n <= MaxN; n++ {
		for lead := 0; lead < 8; lead++ {
			for grams := 1; grams <= 5; grams++ {
				w := Window{N: n}
				w.FeedBytes(nil, text[:lead])
				b := w.BytesFor(grams)
				before := w
				if got := len(w.FeedBytes(nil, text[lead:lead+b])); got != grams {
					t.Fatalf("n=%d lead=%d: %d bytes gave %d grams, want %d", n, lead, b, got, grams)
				}
				if got := len(before.FeedBytes(nil, text[lead:lead+b-1])); got != grams-1 {
					t.Fatalf("n=%d lead=%d: %d bytes gave %d grams, want %d", n, lead, b-1, got, grams-1)
				}
			}
		}
	}
}

// BenchmarkCounterTop ranks one language's top 5000 out of 20000
// n-grams of Zipf-like counts, every fifth n-gram unseen by it, as in a
// vocabulary shared by several languages.
func BenchmarkCounterTop(b *testing.B) {
	v := &Vocabulary{}
	c := v.NewCounter()
	for i := range 20000 {
		v.grams = append(v.grams, uint32(i*2654435761)>>12)
		n := uint32(0)
		if i%5 != 0 {
			n = 40000/uint32(i+1) + uint32(i%3)
		}
		c.counts = append(c.counts, n)
	}
	for b.Loop() {
		top(c, DefaultProfileSize)
	}
}

// sparseVocabulary numbers size n-grams scattered over a flat n = 4
// index, as a training run of that vocabulary leaves it.
func sparseVocabulary(tb testing.TB, size int) *Vocabulary {
	tb.Helper()
	v, err := NewVocabulary(4)
	if err != nil {
		tb.Fatal(err)
	}
	mask := uint32(len(v.index16) - 1)
	for i := uint32(1); v.size < size; i++ {
		if g := i * 2654435761 & mask; v.index16[g] == 0 {
			v.index16[g] = uint16(v.number())
		}
	}
	return v
}

// TestNumberedInvertsIndex pins the word-at-a-time inversion against
// the entry-by-entry one, on both index widths.
func TestNumberedInvertsIndex(t *testing.T) {
	v := sparseVocabulary(t, 3000)
	want := make([]uint32, v.size)
	for g, id := range v.index16 {
		if id != 0 {
			want[id-1] = uint32(g)
		}
	}
	if got := v.numbered(); !slices.Equal(got, want) {
		t.Fatal("uint16 index: numbered differs from the entry-by-entry inversion")
	}
	v.widen()
	v.grams = nil
	if got := v.numbered(); !slices.Equal(got, want) {
		t.Fatal("uint32 index: numbered differs from the entry-by-entry inversion")
	}
}

// BenchmarkVocabularyNumbered lists a 10,000-n-gram flat vocabulary's
// n-grams by number, as Release does when counting ends: one pass over
// the whole 2 MiB index at n = 4.
func BenchmarkVocabularyNumbered(b *testing.B) {
	v := sparseVocabulary(b, 10000)
	for b.Loop() {
		v.grams = nil
		v.numbered()
	}
}
