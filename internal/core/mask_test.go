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

// synthMaskProfiles builds an n-gram profile set of langs synthetic
// languages whose profiles overlap heavily — every profile holds the
// pool's first 20 grams, then draws from the rest of the pool plus
// grams of its own — so masks carry from no to all bits set. The pool
// comes back for drawing member-heavy gram streams.
func synthMaskProfiles(t testing.TB, n, langs int, seed int64) (*ProfileSet, []uint32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := uint32(1) << ngram.Bits(n)
	pool := make([]uint32, 3000)
	for i := range pool {
		pool[i] = rng.Uint32() % space
	}
	ps := &ProfileSet{Config: Config{N: n, TopT: 2000}.WithDefaults()}
	for l := 0; l < langs; l++ {
		seen := map[uint32]bool{}
		p := &ngram.Profile{Language: fmt.Sprintf("l%02d", l), N: n}
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

// synthGrams draws count grams, about half from the member pool and
// half uniformly from the packed n-gram space (nearly all non-members).
func synthGrams(rng *rand.Rand, pool []uint32, n, count int) []uint32 {
	gs := make([]uint32, count)
	for i := range gs {
		if rng.Intn(2) == 0 {
			gs[i] = pool[rng.Intn(len(pool))]
		} else {
			gs[i] = rng.Uint32() % (1 << ngram.Bits(n))
		}
	}
	return gs
}

// exactKernelFor builds the exact kernel over ps and checks its kind:
// the mask planes up to n = 5, the probe tables at n = 6.
func exactKernelFor(t testing.TB, ps *ProfileSet) Kernel {
	t.Helper()
	k := mustDetector(t, ps).kernel
	switch k.(type) {
	case *maskKernel:
		if ps.Config.N > maxMaskN {
			t.Fatalf("n=%d: the exact backend built mask planes", ps.Config.N)
		}
	case *probeKernel:
		if ps.Config.N <= maxMaskN {
			t.Fatalf("n=%d: the exact backend built probe tables", ps.Config.N)
		}
	default:
		t.Fatalf("the exact backend built %T", k)
	}
	return k
}

// TestMaskKernelMatchesReference is the exactness property of core's
// exact kernel, for the mask planes at n = 4 and the probe tables at
// n = 6: for language counts inside one plane or table, exactly
// filling one, and spilling into further ones, the kernel's counts
// equal the naive per-language sets', through AccumulateInto and
// through a Stream over the bytes (the fused loop for one n = 4 plane,
// n-gram blocks otherwise), and counting one n-gram agrees with set
// membership on members and non-members. The sizes straddle the old
// histogram cut-over (159–161), one lane flush (255–257) and many
// flushes (8192).
func TestMaskKernelMatchesReference(t *testing.T) {
	for _, n := range []int{4, 6} {
		for _, langs := range []int{1, 9, 16, 17, 40} {
			name := fmt.Sprintf("L=%d", langs)
			if n != 4 {
				name += fmt.Sprintf("-n%d", n)
			}
			t.Run(name, func(t *testing.T) { checkExactKernel(t, n, langs) })
		}
	}
}

// checkExactKernel runs the exactness property on a synthetic set of
// langs languages at n.
func checkExactKernel(t *testing.T, n, langs int) {
	ps, pool := synthMaskProfiles(t, n, langs, int64(langs))
	k := exactKernelFor(t, ps)
	ref := newMaskReference(ps)
	rng := rand.New(rand.NewSource(int64(langs) * 7))
	for _, count := range []int{0, 1, 159, 160, 161, 255, 256, 257, 8192} {
		checkMaskAccumulate(t, k, ref, synthGrams(rng, pool, n, count))
		checkMaskCount(t, ps, ref, memberDoc(rng, pool, n, count))
	}
	// Every profile holds pool[:20], so on these streams every
	// language hits every n-gram: a lane that overflowed past 255
	// would show.
	allHit := make([]uint32, 8192)
	for i := range allHit {
		allHit[i] = pool[rng.Intn(20)]
	}
	checkMaskAccumulate(t, k, ref, allHit)
	doc := bytes.Repeat([]byte("abcd"), 8192/4+2)[:8192+n-1]
	docGrams, err := ngram.ExtractBytes(doc, n)
	if err != nil {
		t.Fatal(err)
	}
	shared := withGrams(ps, docGrams)
	checkMaskCount(t, shared, newMaskReference(shared), doc)
	probe := synthGrams(rng, pool, n, 2000)
	for _, p := range ps.Profiles {
		probe = append(probe, p.Grams...)
	}
	counts := make([]int, len(ref))
	for _, g := range probe {
		clear(counts)
		k.AccumulateInto(counts, []uint32{g})
		for lang, set := range ref {
			if _, want := set[g]; (counts[lang] == 1) != want {
				t.Fatalf("language %d gram %#x: count %d, reference member %v", lang, g, counts[lang], want)
			}
		}
	}
}

func checkMaskAccumulate(t *testing.T, k Kernel, ref maskReference, gs []uint32) {
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
	det := mustDetector(t, ps)
	gs, err := ngram.ExtractBytes(doc, ps.Config.N)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.counts(gs)
	s := det.NewStream()
	if fused := s.plane != nil; fused != (len(ref) <= maskPlaneLangs && ps.Config.N <= maxMaskN) {
		t.Errorf("%d languages at n=%d: stream fused = %v", len(ref), ps.Config.N, fused)
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

// memberDoc builds a document of exactly count n-grams (count+n-1
// bytes) by spelling out pool members whose codes all stand for
// characters, so every n-th n-gram is a member and the ones between
// are mixtures.
func memberDoc(rng *rand.Rand, pool []uint32, n, count int) []byte {
	var doc []byte
next:
	for len(doc) < count+n-1 {
		g, word := pool[rng.Intn(len(pool))], make([]byte, n)
		for i := n - 1; i >= 0; i, g = i-1, g>>alphabet.Bits {
			c := alphabet.Code(g & (1<<alphabet.Bits - 1))
			if c >= alphabet.NumCodes {
				continue next
			}
			word[i] = c.Byte()
		}
		doc = append(doc, word...)
	}
	if count == 0 {
		return doc[:rng.Intn(n)]
	}
	return doc[:count+n-1]
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
// profiles trained at n = 4 and n = 6 over real test documents, through
// the detector's counting entry point and a Stream.
func TestMaskKernelMatchesReferenceOnCorpus(t *testing.T) {
	for _, ps := range []*ProfileSet{trainMini(t, Config{TopT: 1000}), sixGramSet(t)} {
		c := mustDetector(t, ps)
		ref := newMaskReference(ps)
		for lang, docs := range getMiniCorpus(t).Test {
			for i, doc := range docs {
				gs := extractGrams(c, doc.Text)
				want := ref.counts(gs)
				if got := c.ClassifyGrams(gs).Counts; !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d %s doc %d: kernel counts %v, reference %v", ps.Config.N, lang, i, got, want)
				}
				if got, _ := c.DetectCounts(nil, doc.Text); !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d %s doc %d: DetectCounts %v, reference %v", ps.Config.N, lang, i, got, want)
				}
			}
		}
	}
}

// TestDirectRejectsTableTooLarge pins the size guard: at n = 6 a mask
// plane indexed by the packed n-gram would be 2 GiB, so the exact
// backend builds none there. It keeps the same masks in probe tables,
// one per 16 languages, each with more than twice and at most four
// times as many slots as its languages hold n-grams: 16 languages at
// the paper's t = 5000 cost 2 MiB, and building the detector allocates
// little beyond its tables. A profile n-gram outside the 30-bit space
// is refused.
func TestDirectRejectsTableTooLarge(t *testing.T) {
	for _, langs := range []int{1, 16, 17} {
		rng := rand.New(rand.NewSource(int64(langs)))
		ps := &ProfileSet{Config: Config{N: 6}}
		grams := make([]int, (langs+maskPlaneLangs-1)/maskPlaneLangs)
		for l := 0; l < langs; l++ {
			seen := map[uint32]bool{}
			p := &ngram.Profile{Language: fmt.Sprintf("l%02d", l), N: 6}
			for len(p.Grams) < 5000 {
				if g := rng.Uint32() >> 2; !seen[g] {
					seen[g] = true
					p.Grams = append(p.Grams, g)
				}
			}
			ps.Profiles = append(ps.Profiles, p)
			grams[l/maskPlaneLangs] += len(p.Grams)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		det := mustDetector(t, ps)
		runtime.ReadMemStats(&after)
		k, ok := det.kernel.(*probeKernel)
		if !ok || det.Backend() != BackendDirect {
			t.Fatalf("%d languages at n=6: %s built %T, want the probe tables", langs, det.Backend(), det.kernel)
		}
		if len(k.tables) != len(grams) {
			t.Fatalf("%d languages: %d tables, want %d", langs, len(k.tables), len(grams))
		}
		bytes := 0
		for i, tab := range k.tables {
			if len(tab) <= 2*grams[i] || len(tab) > 4*grams[i] {
				t.Errorf("%d languages: table %d has %d slots for %d n-grams", langs, i, len(tab), grams[i])
			}
			bytes += 8 * len(tab)
		}
		if langs == 16 && bytes > 2<<20 {
			t.Errorf("16 languages: %d bytes of tables, want at most 2 MiB", bytes)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(bytes)+64<<10 {
			t.Errorf("%d languages: NewDetector allocated %d bytes for %d bytes of tables", langs, alloc, bytes)
		}
	}
	bad := &ProfileSet{Config: Config{N: 6}, Profiles: []*ngram.Profile{{Language: "xx", N: 6, Grams: []uint32{1, 1 << 30}}}}
	if _, err := NewDetector(bad); err == nil || !strings.Contains(err.Error(), "outside the 30-bit n=6 space") {
		t.Errorf("an out-of-space n-gram gave error %v", err)
	}
}

// TestDefaultBackendIsDirect pins the exact kernel as the default
// backend, so every caller that names none serves it, at every n; a
// nil kernel builder selects it too.
func TestDefaultBackendIsDirect(t *testing.T) {
	for _, ps := range []*ProfileSet{trainMini(t, Config{TopT: 500}), sixGramSet(t)} {
		for _, opts := range [][]DetectorOption{nil, {WithKernel("named", nil)}} {
			if got := mustDetector(t, ps, opts...).Backend().String(); got != "direct-lookup" {
				t.Errorf("n=%d, %d options: the detector runs %q, want direct-lookup", ps.Config.N, len(opts), got)
			}
		}
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

// FuzzMaskKernelVsReference checks the exact kernel against the naive
// per-language sets on fuzzer-chosen gram streams over 17-language sets
// (two planes at n = 4, two probe tables at n = 6): each 4-byte word of
// the input picks a pool member or a raw packed gram, and the stream is
// also counted as two chunks split at a fuzzer-chosen point, so one
// side often ends inside a lane flush interval. The input is also
// classified as a document against trained profiles at both n. Direct
// is the exact reference other backends are fuzzed against, so this
// closes that loop.
func FuzzMaskKernelVsReference(f *testing.F) {
	type exactCase struct {
		n          int
		k          Kernel
		pool       []uint32
		ref        maskReference
		c          *Detector
		trainedRef maskReference
	}
	var cases []exactCase
	for _, n := range []int{4, 6} {
		ps, pool := synthMaskProfiles(f, n, 17, 99)
		trained := trainMini(f, Config{N: n, TopT: 800})
		cases = append(cases, exactCase{n, exactKernelFor(f, ps), pool, newMaskReference(ps), mustDetector(f, trained), newMaskReference(trained)})
	}
	f.Add([]byte(""), uint16(0))
	f.Add([]byte("\x00\xff un documento tr\xe8s fran\xe7ais \x01\x02"), uint16(3))
	f.Add(getMiniCorpus(f).Test["fi"][0].Text, uint16(300))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		for _, ec := range cases {
			gs := make([]uint32, len(data)/4)
			for i := range gs {
				w := binary.LittleEndian.Uint32(data[4*i:])
				if w&1 != 0 {
					gs[i] = ec.pool[int(w>>1)%len(ec.pool)]
				} else {
					gs[i] = (w >> 1) % (1 << ngram.Bits(ec.n))
				}
			}
			want := ec.ref.counts(gs)
			whole := make([]int, len(ec.ref))
			ec.k.AccumulateInto(whole, gs)
			if !reflect.DeepEqual(whole, want) {
				t.Fatalf("n=%d, %d grams: kernel counts %v, reference %v", ec.n, len(gs), whole, want)
			}
			cut := int(split) % (len(gs) + 1)
			parts := make([]int, len(ec.ref))
			ec.k.AccumulateInto(parts, gs[:cut])
			ec.k.AccumulateInto(parts, gs[cut:])
			if !reflect.DeepEqual(parts, want) {
				t.Fatalf("n=%d, split at %d of %d: kernel counts %v, reference %v", ec.n, cut, len(gs), parts, want)
			}
			docGrams := extractGrams(ec.c, data)
			if got, want := ec.c.ClassifyGrams(docGrams).Counts, ec.trainedRef.counts(docGrams); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d document: kernel counts %v, reference %v", ec.n, got, want)
			}
		}
	})
}

// BenchmarkDetectCount times the membership-counting stage alone —
// the kernel's AccumulateInto over pre-extracted grams — on every
// backend, for a whole 5 KB document and for one 16-gram segmentation
// chunk. It is the per-stage figure for the counting layer. The
// 5KB-bytes case times the serving stage instead: a Stream counting the
// raw document, translation and extraction included (the fused loop on
// direct-lookup, n-gram blocks on parallel-bloom); where the fused loop
// runs the AVX2 kernel, 5KB-bytes-go-loop times it on the Go loop.
func BenchmarkDetectCount(b *testing.B) {
	corp, err := corpus.Generate(corpus.Config{DocsPerLanguage: 30, WordsPerDoc: 300, TrainFraction: 0.5, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	ps, err := trainTexts(DefaultConfig(), corp.TrainTextsByLanguage())
	if err != nil {
		b.Fatal(err)
	}
	var doc []byte
	for _, d := range corp.Test["es"] {
		doc = append(doc, d.Text...)
	}
	doc = doc[:5<<10]
	for _, backend := range equivBackends() {
		det, err := NewDetector(ps, withBackend(backend))
		if err != nil {
			b.Fatal(err)
		}
		gs := extractGrams(det, doc)
		counts := make([]int, len(det.Languages()))
		for _, size := range []struct {
			name string
			gs   []uint32
		}{{"5KB", gs}, {"16grams", gs[:16]}} {
			b.Run(backend.String()+"/"+size.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					det.kernel.AccumulateInto(counts, size.gs)
				}
			})
		}
		countBytes := func(b *testing.B) {
			s := det.NewStream()
			b.ReportAllocs()
			for b.Loop() {
				s.Reset()
				s.Write(doc)
			}
		}
		b.Run(backend.String()+"/5KB-bytes", countBytes)
		if backend == BackendDirect && useGroups {
			b.Run(backend.String()+"/5KB-bytes-go-loop", func(b *testing.B) {
				goLoop(b)
				countBytes(b)
			})
		}
	}
}
