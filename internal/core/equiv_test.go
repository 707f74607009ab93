package core

// Equivalence guarantees the serving layer leans on: every backend
// produces the identical decision and counts on every input path
// (one-shot bytes, reader, incremental stream, batch), a document fed
// to a Stream in any chunking — including splits landing mid-n-gram —
// produces the identical match and counts as one-shot classification,
// and the batch fan-out returns results in input order at any worker
// count.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ngram"
)

// backendBloom names the paper's Parallel Bloom Filter kernel, which
// lives in internal/bloom: core cannot import it, so the external test
// package adds it to the matrix (paperKernels) and withBackend resolves
// the name.
const backendBloom Backend = "parallel-bloom"

// testKernel is a kernel from outside core, by name and builder.
type testKernel struct {
	name  Backend
	build func(*ProfileSet) (Kernel, error)
}

// paperKernels are the kernels from outside core the backend matrix
// runs besides core's exact one, added by the external test package
// through AddTestKernel before any test runs.
var paperKernels []testKernel

// equivBackends is the full backend matrix the equivalence, span and
// allocation suites run over: every paper kernel, then core's exact
// one.
func equivBackends() []Backend {
	var bs []Backend
	for _, k := range paperKernels {
		bs = append(bs, k.name)
	}
	return append(bs, BackendDirect)
}

// withBackend selects a backend of the matrix by name; a name the
// matrix does not hold makes NewDetector fail.
func withBackend(b Backend) DetectorOption {
	for _, k := range paperKernels {
		if k.name == b {
			return WithKernel(k.name, k.build)
		}
	}
	if b == BackendDirect {
		return WithKernel(b, nil)
	}
	return WithKernel(b, func(*ProfileSet) (Kernel, error) {
		return nil, fmt.Errorf("core: no test kernel %q", b)
	})
}

// sixGramSet is the mini corpus trained at n = 6, where core's exact
// kernel is the probe table and a Stream counts through the generic
// FeedBytes → AccumulateInto path.
func sixGramSet(t testing.TB) *ProfileSet { return trainMini(t, Config{N: 6, TopT: 1000}) }

// rowName names a detector's row of the matrix: its backend, with the
// n-gram length when that is not the default 4.
func rowName(d *Detector) string {
	if n := d.Config().N; n != ngram.DefaultN {
		return fmt.Sprintf("%s-n%d", d.Backend(), n)
	}
	return d.Backend().String()
}

// matrixDetectors builds one detector over ps per backend of the
// matrix, then the exact detector over the n = 6 set.
func matrixDetectors(t testing.TB, ps *ProfileSet, opts ...DetectorOption) []*Detector {
	t.Helper()
	var dets []*Detector
	for _, b := range equivBackends() {
		dets = append(dets, mustDetector(t, ps, append([]DetectorOption{withBackend(b)}, opts...)...))
	}
	return append(dets, mustDetector(t, sixGramSet(t), opts...))
}

// TestDetectEquivalenceAcrossPaths pins Detect ≡ DetectCounts ≡
// classify ≡ Rank over the backend matrix and core's exact kernel at
// n = 6 and every input path: the one-shot byte path, the io.Reader
// path, the incremental stream path, and the batch path must all return
// the identical Match, Rank's head must agree with Detect, and every
// counts-carrying path must report the staged reference's counts and
// winner.
func TestDetectEquivalenceAcrossPaths(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	corp := getMiniCorpus(t)
	for _, det := range matrixDetectors(t, ps) {
		t.Run(rowName(det), func(t *testing.T) {
			var docs []corpus.Document
			for _, lang := range []string{"en", "es", "fi", "pt"} {
				docs = append(docs, corp.Test[lang][0], corp.Test[lang][1])
			}
			docs = append(docs, corpus.Document{}) // empty document -> Unknown on every path
			batch := det.DetectBatch(corpus.Texts(docs))
			for i, doc := range docs {
				want := det.Detect(doc.Text)

				rs := det.NewStream()
				if _, err := io.Copy(rs, bytes.NewReader(doc.Text)); err != nil || rs.Match() != want {
					t.Errorf("doc %d: reader path = %+v (%v), detect = %+v", i, rs.Match(), err, want)
				}

				st := det.NewStream()
				for start := 0; start < len(doc.Text); start += 7 {
					end := start + 7
					if end > len(doc.Text) {
						end = len(doc.Text)
					}
					st.Write(doc.Text[start:end])
				}
				if got := st.Match(); got != want {
					t.Errorf("doc %d: stream path = %+v, detect = %+v", i, got, want)
				}

				if batch[i] != want {
					t.Errorf("doc %d: batch path = %+v, detect = %+v", i, batch[i], want)
				}

				ranked := det.Rank(doc.Text, 0)
				if len(ranked) != len(det.Languages()) {
					t.Fatalf("doc %d: Rank returned %d entries for %d languages", i, len(ranked), len(det.Languages()))
				}
				if want.NGrams > 0 {
					if ranked[0].Count != want.Count || ranked[0].Score != want.Score {
						t.Errorf("doc %d: rank head %+v disagrees with detect %+v", i, ranked[0], want)
					}
					if !want.Unknown && ranked[0].Lang != want.Lang {
						t.Errorf("doc %d: rank head language %q, detect %q", i, ranked[0].Lang, want.Lang)
					}
				}

				res := classify(det, doc.Text)
				if got := bestLanguage(det, res); got != want.Lang || res.NGrams != want.NGrams {
					t.Errorf("doc %d: classify winner %q over %d n-grams, detect = %+v", i, got, res.NGrams, want)
				}
				if counts, got := det.DetectCounts(nil, doc.Text); got != want || !reflect.DeepEqual(counts, res.Counts) {
					t.Errorf("doc %d: DetectCounts = %v %+v, classify = %v %+v", i, counts, got, res.Counts, want)
				}
				if got := st.AppendCounts(nil); !reflect.DeepEqual(got, res.Counts) {
					t.Errorf("doc %d: stream counts = %v, classify = %v", i, got, res.Counts)
				}
			}
		})
	}
}

// TestBloomNeverFalseNegativeVsDirect is the deterministic half of
// the differential guarantee (the fuzz half lives in
// FuzzBloomNoFalseNegativesVsDirect): on real corpus documents, every
// n-gram the exact direct table accepts must also be accepted by the
// parallel Bloom filters, so their per-language counts dominate the
// exact counts.
func TestBloomNeverFalseNegativeVsDirect(t *testing.T) {
	diff := newBloomDiff(t, trainMini(t, Config{TopT: 1000}))
	corp := getMiniCorpus(t)
	for _, lang := range []string{"en", "es", "fi", "pt"} {
		for _, doc := range corp.Test[lang][:5] {
			diff.check(t, doc.Text)
		}
	}
}

// bloomDiff holds the exact detector and the Bloom detector the
// differential guarantee compares it with.
type bloomDiff struct {
	direct, bloom *Detector
}

// newBloomDiff builds the exact and the parallel Bloom detectors over
// ps.
func newBloomDiff(t testing.TB, ps *ProfileSet) *bloomDiff {
	t.Helper()
	build := func(b Backend) *Detector {
		c, err := NewDetector(ps, withBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return &bloomDiff{direct: build(BackendDirect), bloom: build(backendBloom)}
}

// check fails t unless, on doc, every n-gram the exact table accepts
// for a language is accepted by the Bloom filter of that language, and
// the Bloom backend's counts dominate the exact counts.
func (d *bloomDiff) check(t testing.TB, doc []byte) {
	t.Helper()
	gs := extractGrams(d.direct, doc)
	dr := classify(d.direct, doc)
	exact := make([]int, len(dr.Counts))
	member := make([]int, len(dr.Counts))
	c := d.bloom
	for j := range gs {
		// Counting one n-gram answers its membership per language.
		clear(exact)
		clear(member)
		d.direct.kernel.AccumulateInto(exact, gs[j:j+1])
		c.kernel.AccumulateInto(member, gs[j:j+1])
		for i, lang := range d.direct.langs {
			if exact[i] > member[i] {
				t.Fatalf("%s false negative: lang %s gram %#x", c.Backend(), lang, gs[j])
			}
		}
	}
	br := classify(c, doc)
	if br.NGrams != dr.NGrams {
		t.Fatalf("%s extracted %d n-grams, direct %d", c.Backend(), br.NGrams, dr.NGrams)
	}
	for i := range dr.Counts {
		if br.Counts[i] < dr.Counts[i] {
			t.Fatalf("%s count %d below exact count %d for %s", c.Backend(), br.Counts[i], dr.Counts[i], d.direct.langs[i])
		}
	}
}

// extractGrams is the staged reference for the Stream's one pass from
// bytes to counts: translation to a code slice, then extraction
// through a value copy of the detector's prototype window.
func extractGrams(d *Detector, doc []byte) []uint32 {
	w := d.window
	return w.Feed(nil, alphabet.TranslateAll(doc))
}

// classify is the staged reference pipeline: extractGrams, then
// ClassifyGrams over the detector's kernel.
func classify(d *Detector, doc []byte) Result {
	return d.ClassifyGrams(extractGrams(d, doc))
}

// bestLanguage is the staged reference's winner: the language with the
// most matches, ties broken towards the earlier one, or "" when no
// n-gram was tested.
func bestLanguage(d *Detector, r Result) string {
	if r.NGrams == 0 {
		return ""
	}
	best, _ := winners(r.Counts)
	return d.langs[best]
}

// splitPoints returns deterministic pseudo-random cut offsets for a
// document of length n.
func splitPoints(rng *rand.Rand, n, cuts int) []int {
	pts := make([]int, 0, cuts)
	for i := 0; i < cuts; i++ {
		pts = append(pts, rng.Intn(n))
	}
	pts = append(pts, 0, n)
	// Insertion sort keeps the helper dependency-free.
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j] < pts[j-1]; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	return pts
}

func TestStreamArbitraryChunkSplitsMatchOneShot(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	for _, det := range matrixDetectors(t, ps) {
		rng := rand.New(rand.NewSource(99))
		for _, mode := range streamModes(t, det) {
			for _, lang := range []string{"en", "es", "fi", "pt"} {
				doc := getMiniCorpus(t).Test[lang][0].Text
				s := mode.newStream()
				for trial := 0; trial < 20; trial++ {
					pts := splitPoints(rng, len(doc), 1+rng.Intn(12))
					s.Reset()
					for i := 1; i < len(pts); i++ {
						s.Write(doc[pts[i-1]:pts[i]])
					}
					checkStream(t, det, s, doc, rowName(det)+"/"+mode.name+"/"+lang)
				}
			}
		}
	}
}

// TestStreamMidNGramBoundarySplits walks a two-chunk split across every
// offset in the n-gram window region, so each possible mid-n-gram cut
// is hit explicitly.
func TestStreamMidNGramBoundarySplits(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	for _, det := range matrixDetectors(t, ps) {
		doc := getMiniCorpus(t).Test["es"][0].Text
		if len(doc) > 64 {
			doc = doc[:64]
		}
		for _, mode := range streamModes(t, det) {
			s := mode.newStream()
			for cut := 0; cut <= len(doc); cut++ {
				s.Reset()
				s.Write(doc[:cut])
				s.Write(doc[cut:])
				checkStream(t, det, s, doc, rowName(det)+"/"+mode.name)
			}
		}
	}
}

func TestDetectBatchPreservesInputOrder(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	// Interleave languages so a reordering cannot produce the same
	// language sequence.
	var docs []corpus.Document
	var wantLangs []string
	corp := getMiniCorpus(t)
	for i := 0; i < 5; i++ {
		for _, lang := range []string{"fi", "en", "pt", "es"} {
			docs = append(docs, corp.Test[lang][i])
			wantLangs = append(wantLangs, lang)
		}
	}
	for _, workers := range []int{1, 3, len(docs) * 4} {
		det, err := NewDetector(ps, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		got := det.DetectBatch(corpus.Texts(docs))
		if len(got) != len(docs) {
			t.Fatalf("workers=%d: %d results for %d docs", workers, len(got), len(docs))
		}
		for i, d := range docs {
			if got[i] != det.Detect(d.Text) {
				t.Errorf("workers=%d: result %d differs from sequential", workers, i)
			}
			if got[i].Lang != wantLangs[i] {
				t.Errorf("workers=%d: position %d classified %q, want %q", workers, i, got[i].Lang, wantLangs[i])
			}
		}
	}
}
