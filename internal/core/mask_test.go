package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

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

// TestMaskKernelMatchesReference is the exactness property: on slices
// either side of the histogram cut-over, for language counts inside
// one mask plane, exactly filling one, and spilling into further
// planes, the kernel's counts equal the naive per-language sets', and
// Test agrees with set membership on members and non-members.
func TestMaskKernelMatchesReference(t *testing.T) {
	for _, langs := range []int{1, 9, 16, 17, 40} {
		t.Run(fmt.Sprintf("L=%d", langs), func(t *testing.T) {
			ps, pool := synthMaskProfiles(t, langs, int64(langs))
			k := maskKernelFor(t, ps)
			ref := newMaskReference(ps)
			rng := rand.New(rand.NewSource(int64(langs) * 7))
			for _, n := range []int{0, 1, maskHistogramMin - 1, maskHistogramMin, maskHistogramMin + 1, 8192} {
				gs := synthGrams(rng, pool, n)
				got := make([]int, langs)
				k.AccumulateInto(got, gs)
				if want := ref.counts(gs); !reflect.DeepEqual(got, want) {
					t.Errorf("%d grams: kernel counts %v, reference %v", n, got, want)
				}
			}
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
// plane would be 2 GiB, so the builder refuses and points at blocked.
func TestDirectRejectsTableTooLarge(t *testing.T) {
	ps := &ProfileSet{
		Config:   Config{N: 6},
		Profiles: []*ngram.Profile{{Language: "xx", N: 6, Grams: []uint32{1, 2, 3}}},
	}
	_, err := New(ps, BackendDirect)
	if err == nil || !strings.Contains(err.Error(), "blocked") {
		t.Fatalf("n=6 direct build error = %v, want one naming the blocked backend", err)
	}
	if _, err := New(ps, BackendBlocked); err != nil {
		t.Fatalf("n=6 blocked build failed: %v", err)
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

// FuzzMaskKernelVsReference checks the kernel against the naive
// per-language sets on fuzzer-chosen gram streams over a 17-language
// set (two planes): each 4-byte word of the input picks a pool member
// or a raw packed gram, and the stream is also counted as two chunks
// split at a fuzzer-chosen point, so one side often lands below the
// histogram cut-over. The input is also classified as a document
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
// chunk. It is the per-stage figure for the counting layer.
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
	for _, backend := range []Backend{BackendDirect, BackendBloom, BackendClassic, BackendBlocked} {
		c, err := New(ps, backend)
		if err != nil {
			b.Fatal(err)
		}
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
	}
}
