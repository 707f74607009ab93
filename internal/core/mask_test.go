package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ngram"
)

// maskReference is the naive exact membership the mask kernel must
// reproduce: one Go set per language, built straight from the profiles.
type maskReference []map[uint32]struct{}

func newMaskReference(ps *ProfileSet) maskReference {
	ref := make(maskReference, len(ps.Profiles))
	for i, p := range ps.Profiles {
		ref[i] = make(map[uint32]struct{}, len(p.Grams))
		for _, g := range p.Grams {
			ref[i][g] = struct{}{}
		}
	}
	return ref
}

func (ref maskReference) counts(gs []uint32) []int {
	out := make([]int, len(ref))
	for i, set := range ref {
		for _, g := range gs {
			if _, ok := set[g]; ok {
				out[i]++
			}
		}
	}
	return out
}

// synthMaskProfiles builds an n=4 profile set of langs synthetic
// languages whose profiles overlap heavily — every profile holds the
// pool's first 20 grams, then draws from the rest of the pool plus
// grams of its own — so masks carry from no to all bits set. The pool
// comes back for drawing member-heavy gram streams.
func synthMaskProfiles(t testing.TB, langs int, seed int64) (*ProfileSet, []uint32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := uint32(1) << ngram.Bits(4)
	pool := make([]uint32, 3000)
	for i := range pool {
		pool[i] = rng.Uint32() % space
	}
	ps := &ProfileSet{Config: Config{N: 4, TopT: 2000}.WithDefaults()}
	for l := 0; l < langs; l++ {
		seen := map[uint32]bool{}
		p := &ngram.Profile{Language: fmt.Sprintf("l%02d", l), N: 4}
		for _, g := range pool[:20] {
			if !seen[g] {
				seen[g] = true
				p.Grams = append(p.Grams, g)
			}
		}
		for len(p.Grams) < 1500 {
			g := pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 {
				g = rng.Uint32() % space
			}
			if !seen[g] {
				seen[g] = true
				p.Grams = append(p.Grams, g)
			}
		}
		ps.Profiles = append(ps.Profiles, p)
	}
	return ps, pool
}

// synthGrams draws n grams, about half from the member pool and half
// uniformly from the packed 4-gram space (nearly all non-members).
func synthGrams(rng *rand.Rand, pool []uint32, n int) []uint32 {
	gs := make([]uint32, n)
	for i := range gs {
		if rng.Intn(2) == 0 {
			gs[i] = pool[rng.Intn(len(pool))]
		} else {
			gs[i] = rng.Uint32() % (1 << ngram.Bits(4))
		}
	}
	return gs
}

func maskKernelFor(t testing.TB, ps *ProfileSet) *maskKernel {
	t.Helper()
	c, err := New(ps, BackendDirect)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := c.kernel.(*maskKernel)
	if !ok {
		t.Fatalf("direct backend built %T, want *maskKernel", c.kernel)
	}
	return k
}

// TestMaskKernelMatchesReference is the exactness property: for
// language counts inside one mask plane, exactly filling one, and
// spilling into further planes, the kernel's counts equal the naive
// per-language sets', through AccumulateInto and through a Stream over
// the bytes (the fused loop for one plane, n-gram blocks for more), and
// Test agrees with set membership on members and non-members. The sizes
// straddle the old histogram cut-over (159–161), one lane flush
// (255–257) and many flushes (8192).
func TestMaskKernelMatchesReference(t *testing.T) {
	for _, langs := range []int{1, 9, 16, 17, 40} {
		t.Run(fmt.Sprintf("L=%d", langs), func(t *testing.T) {
			ps, pool := synthMaskProfiles(t, langs, int64(langs))
			k := maskKernelFor(t, ps)
			ref := newMaskReference(ps)
			rng := rand.New(rand.NewSource(int64(langs) * 7))
			for _, n := range []int{0, 1, 159, 160, 161, 255, 256, 257, 8192} {
				checkMaskAccumulate(t, k, ref, synthGrams(rng, pool, n))
				checkMaskCount(t, ps, ref, memberDoc(rng, pool, n))
			}
			// Every profile holds pool[:20], so on these streams every
			// language hits every n-gram: a lane that overflowed past 255
			// would show.
			allHit := make([]uint32, 8192)
			for i := range allHit {
				allHit[i] = pool[rng.Intn(20)]
			}
			checkMaskAccumulate(t, k, ref, allHit)
			doc := bytes.Repeat([]byte("abcd"), 8192/4+1)[:8192+3]
			docGrams, err := ngram.ExtractBytes(doc, 4)
			if err != nil {
				t.Fatal(err)
			}
			shared := withGrams(ps, docGrams)
			checkMaskCount(t, shared, newMaskReference(shared), doc)
			probe := synthGrams(rng, pool, 2000)
			for lang, set := range ref {
				for _, g := range append(probe, ps.Profiles[lang].Grams...) {
					if _, want := set[g]; k.Test(lang, g) != want {
						t.Fatalf("Test(%d, %#x) = %v, reference %v", lang, g, !want, want)
					}
				}
			}
		})
	}
}

func checkMaskAccumulate(t *testing.T, k *maskKernel, ref maskReference, gs []uint32) {
	t.Helper()
	got := make([]int, len(ref))
	k.AccumulateInto(got, gs)
	if want := ref.counts(gs); !reflect.DeepEqual(got, want) {
		t.Errorf("%d grams: AccumulateInto counts %v, reference %v", len(gs), got, want)
	}
}

// checkMaskCount writes doc to a direct-backend Stream over ps in one
// piece and in three, against the reference over the document's
// extracted n-grams. The stream must run the fused loop exactly when
// the languages fit one mask plane.
func checkMaskCount(t *testing.T, ps *ProfileSet, ref maskReference, doc []byte) {
	t.Helper()
	det, err := NewDetector(ps)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := ngram.ExtractBytes(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.counts(gs)
	s := det.NewStream()
	if fused := s.plane != nil; fused != (len(ref) <= maskPlaneLangs) {
		t.Errorf("%d languages: stream fused = %v", len(ref), fused)
	}
	for _, cuts := range [][2]int{{0, 0}, {len(doc) / 3, 2 * len(doc) / 3}, {1, len(doc) - 2}} {
		s.Reset()
		a := min(cuts[0], len(doc))
		b := min(max(cuts[1], a), len(doc))
		s.Write(doc[:a])
		s.Write(doc[a:b])
		s.Write(doc[b:])
		if got, n := s.AppendCounts(nil), s.Match().NGrams; n != len(gs) || !reflect.DeepEqual(got, want) {
			t.Errorf("%d bytes cut at %d,%d: stream counts %v over %d grams; reference %v over %d", len(doc), a, b, got, n, want, len(gs))
		}
	}
}

// memberDoc builds a document of exactly n 4-grams (n+3 bytes) by
// spelling out pool members whose codes all stand for characters, so
// every fourth n-gram is a member and the ones between are mixtures.
func memberDoc(rng *rand.Rand, pool []uint32, n int) []byte {
	var doc []byte
	for len(doc) < n+3 {
		codes := ngram.Unpack(pool[rng.Intn(len(pool))], 4)
		if slices.ContainsFunc(codes, func(c alphabet.Code) bool { return c >= alphabet.NumCodes }) {
			continue
		}
		for _, c := range codes {
			doc = append(doc, c.Byte())
		}
	}
	if n == 0 {
		return doc[:rng.Intn(4)]
	}
	return doc[:n+3]
}

// withGrams returns a copy of ps in which every profile also holds the
// given n-grams.
func withGrams(ps *ProfileSet, extra []uint32) *ProfileSet {
	out := &ProfileSet{Config: ps.Config}
	for _, p := range ps.Profiles {
		q := *p
		q.Grams = append(slices.Clone(p.Grams), extra...)
		slices.Sort(q.Grams)
		q.Grams = slices.Compact(q.Grams)
		out.Profiles = append(out.Profiles, &q)
	}
	return out
}

// TestMaskKernelMatchesReferenceOnCorpus runs the same property on
// trained profiles over real test documents, through the classifier's
// counting entry point.
func TestMaskKernelMatchesReferenceOnCorpus(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	c, err := New(ps, BackendDirect)
	if err != nil {
		t.Fatal(err)
	}
	ref := newMaskReference(ps)
	for lang, docs := range getMiniCorpus(t).Test {
		for i, doc := range docs {
			gs := c.ExtractGrams(nil, doc.Text)
			if got, want := c.ClassifyGrams(gs).Counts, ref.counts(gs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s doc %d: kernel counts %v, reference %v", lang, i, got, want)
			}
		}
	}
}

// TestDirectRejectsTableTooLarge pins the size guard: at n=6 a mask
// plane would be 2 GiB, so the builder refuses and points at
// parallel-bloom, which builds, and which ServingBackend picks there.
func TestDirectRejectsTableTooLarge(t *testing.T) {
	ps := &ProfileSet{
		Config:   Config{N: 6},
		Profiles: []*ngram.Profile{{Language: "xx", N: 6, Grams: []uint32{1, 2, 3}}},
	}
	_, err := New(ps, BackendDirect)
	if err == nil || !strings.Contains(err.Error(), "parallel-bloom") {
		t.Fatalf("n=6 direct build error = %v, want one naming the parallel-bloom backend", err)
	}
	if _, err := New(ps, BackendBloom); err != nil {
		t.Fatalf("n=6 parallel-bloom build failed: %v", err)
	}
	if got := ServingBackend(ps.Config); got != BackendBloom {
		t.Errorf("ServingBackend(n=6) = %v, want parallel-bloom", got)
	}
	for _, n := range []int{0, 3, 4, 5} {
		if got := ServingBackend(Config{N: n}); got != BackendDirect {
			t.Errorf("ServingBackend(n=%d) = %v, want direct-lookup", n, got)
		}
	}
}

// TestDefaultBackendIsDirect pins the exact kernel as the zero-value
// backend, so every caller that names none serves it.
func TestDefaultBackendIsDirect(t *testing.T) {
	var zero Backend
	if zero != BackendDirect || zero.String() != "direct-lookup" {
		t.Errorf("zero Backend is %q, want direct-lookup", zero)
	}
	det, err := NewDetector(trainMini(t, Config{TopT: 500}))
	if err != nil {
		t.Fatal(err)
	}
	if got := det.Backend().String(); got != "direct-lookup" {
		t.Errorf("NewDetector without WithBackend uses %q, want direct-lookup", got)
	}
}

// TestDetectorOnRecycledTable: a detector whose mask plane is the flat
// table a training run has just released, full of that run's n-gram
// numbers, answers exactly as one built on a fresh table, in counts
// and in spans, over the corpus's test documents and pairs of them
// joined. The collector is off, so the released table stays on offer.
func TestDetectorOnRecycledTable(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	build := func(ps *ProfileSet) (*Detector, uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		det, err := NewDetector(ps)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return det, after.TotalAlloc - before.TotalAlloc
	}
	const plane = 2 << 20 // bytes of one n = 4 table
	ps := trainMini(t, Config{})
	ngram.NewTable(ngram.Bits(ps.Config.N)) // takes the released table
	fresh, alloc := build(ps)
	if alloc < plane {
		t.Fatalf("the fresh detector allocated %d bytes, less than its plane", alloc)
	}
	ps = trainMini(t, Config{})
	recycled, alloc := build(ps)
	if alloc >= plane/2 {
		t.Fatalf("the detector allocated %d bytes: it did not take the released table", alloc)
	}
	corp := getMiniCorpus(t)
	var docs [][]byte
	for _, lang := range []string{"en", "fi", "es", "pt"} {
		docs = append(docs, corpus.Texts(corp.Test[lang])...)
	}
	for i := range docs {
		docs = append(docs, append(slices.Clip(docs[i]), docs[(i+7)%len(docs)]...))
	}
	for i, doc := range docs {
		wantCounts, wantMatch := fresh.DetectCounts(nil, doc)
		gotCounts, gotMatch := recycled.DetectCounts(nil, doc)
		if !slices.Equal(gotCounts, wantCounts) || gotMatch != wantMatch {
			t.Fatalf("doc %d: recycled table counts %v %+v, fresh %v %+v", i, gotCounts, gotMatch, wantCounts, wantMatch)
		}
		wantSpans, err := fresh.DetectSpans(doc, SegmentConfig{})
		if err != nil {
			t.Fatal(err)
		}
		gotSpans, err := recycled.DetectSpans(doc, SegmentConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSpans, wantSpans) {
			t.Fatalf("doc %d: recycled table spans %+v, fresh %+v", i, gotSpans, wantSpans)
		}
	}
}

// FuzzMaskKernelVsReference checks the kernel against the naive
// per-language sets on fuzzer-chosen gram streams over a 17-language
// set (two planes): each 4-byte word of the input picks a pool member
// or a raw packed gram, and the stream is also counted as two chunks
// split at a fuzzer-chosen point, so one side often ends inside a lane
// flush interval. The input is also classified as a document
// against trained profiles. Direct is the exact reference other
// backends are fuzzed against, so this closes that loop.
func FuzzMaskKernelVsReference(f *testing.F) {
	ps, pool := synthMaskProfiles(f, 17, 99)
	k := maskKernelFor(f, ps)
	ref := newMaskReference(ps)
	trained := trainMini(f, Config{TopT: 800})
	c, err := New(trained, BackendDirect)
	if err != nil {
		f.Fatal(err)
	}
	trainedRef := newMaskReference(trained)
	f.Add([]byte(""), uint16(0))
	f.Add([]byte("\x00\xff un documento tr\xe8s fran\xe7ais \x01\x02"), uint16(3))
	f.Add(getMiniCorpus(f).Test["fi"][0].Text, uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		gs := make([]uint32, len(data)/4)
		for i := range gs {
			w := binary.LittleEndian.Uint32(data[4*i:])
			if w&1 != 0 {
				gs[i] = pool[int(w>>1)%len(pool)]
			} else {
				gs[i] = (w >> 1) % (1 << ngram.Bits(4))
			}
		}
		want := ref.counts(gs)
		whole := make([]int, len(ref))
		k.AccumulateInto(whole, gs)
		if !reflect.DeepEqual(whole, want) {
			t.Fatalf("%d grams: kernel counts %v, reference %v", len(gs), whole, want)
		}
		cut := int(split) % (len(gs) + 1)
		parts := make([]int, len(ref))
		k.AccumulateInto(parts, gs[:cut])
		k.AccumulateInto(parts, gs[cut:])
		if !reflect.DeepEqual(parts, want) {
			t.Fatalf("split at %d of %d: kernel counts %v, reference %v", cut, len(gs), parts, want)
		}
		docGrams := c.ExtractGrams(nil, data)
		if got, want := c.ClassifyGrams(docGrams).Counts, trainedRef.counts(docGrams); !reflect.DeepEqual(got, want) {
			t.Fatalf("document: kernel counts %v, reference %v", got, want)
		}
	})
}

// BenchmarkDetectCount times the membership-counting stage alone —
// the kernel's AccumulateInto over pre-extracted grams — on every
// backend, for a whole 5 KB document and for one 16-gram segmentation
// chunk. It is the per-stage figure for the counting layer. The
// 5KB-bytes case times the serving stage instead: a Stream counting the
// raw document, translation and extraction included (the fused loop on
// direct-lookup, n-gram blocks on parallel-bloom).
func BenchmarkDetectCount(b *testing.B) {
	corp, err := corpus.Generate(corpus.Config{DocsPerLanguage: 30, WordsPerDoc: 300, TrainFraction: 0.5, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	ps, err := TrainFromTexts(DefaultConfig(), corp.TrainTextsByLanguage())
	if err != nil {
		b.Fatal(err)
	}
	var doc []byte
	for _, d := range corp.Test["es"] {
		doc = append(doc, d.Text...)
	}
	doc = doc[:5<<10]
	for _, backend := range []Backend{BackendDirect, BackendBloom} {
		det, err := NewDetector(ps, WithBackend(backend))
		if err != nil {
			b.Fatal(err)
		}
		c := det.Classifier()
		gs := c.ExtractGrams(nil, doc)
		counts := make([]int, len(c.Languages()))
		for _, size := range []struct {
			name string
			gs   []uint32
		}{{"5KB", gs}, {"16grams", gs[:16]}} {
			b.Run(backend.String()+"/"+size.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					c.kernel.AccumulateInto(counts, size.gs)
				}
			})
		}
		b.Run(backend.String()+"/5KB-bytes", func(b *testing.B) {
			s := det.NewStream()
			b.ReportAllocs()
			for b.Loop() {
				s.Reset()
				s.Write(doc)
			}
		})
	}
}
