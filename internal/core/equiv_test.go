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
	"io"
	"math/rand"
	"reflect"
	"testing"

	"bloomlang/internal/corpus"
)

// equivBackends is the full built-in backend matrix the equivalence
// suite runs over.
var equivBackends = []Backend{BackendBloom, BackendDirect}

// TestDetectEquivalenceAcrossPaths pins Detect ≡ DetectCounts ≡
// Classify ≡ Rank over every built-in backend and every input path:
// the one-shot byte path, the io.Reader path, the incremental stream
// path, and the batch path must all return the identical Match, Rank's
// head must agree with Detect, and every counts-carrying path must
// report the raw Classify counts and winner.
func TestDetectEquivalenceAcrossPaths(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	corp := getMiniCorpus(t)
	for _, backend := range equivBackends {
		t.Run(backend.String(), func(t *testing.T) {
			det, err := NewDetector(ps, WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			clf := det.Classifier()
			var docs []corpus.Document
			for _, lang := range []string{"en", "es", "fi", "pt"} {
				docs = append(docs, corp.Test[lang][0], corp.Test[lang][1])
			}
			docs = append(docs, corpus.Document{}) // empty document -> Unknown on every path
			batch := det.DetectBatch(corpus.Texts(docs))
			nLangs := len(det.Languages())
			batchCounts, batchMatches := det.DetectBatchCounts(nil, corpus.Texts(docs))
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

				if batch[i] != want || batchMatches[i] != want {
					t.Errorf("doc %d: batch paths = %+v, %+v, detect = %+v", i, batch[i], batchMatches[i], want)
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

				res := clf.Classify(doc.Text)
				if got := res.BestLanguage(clf.Languages()); got != want.Lang || res.NGrams != want.NGrams {
					t.Errorf("doc %d: classify winner %q over %d n-grams, detect = %+v", i, got, res.NGrams, want)
				}
				if counts, got := det.DetectCounts(nil, doc.Text); got != want || !reflect.DeepEqual(counts, res.Counts) {
					t.Errorf("doc %d: DetectCounts = %v %+v, classify = %v %+v", i, counts, got, res.Counts, want)
				}
				if got := st.AppendCounts(nil); !reflect.DeepEqual(got, res.Counts) {
					t.Errorf("doc %d: stream counts = %v, classify = %v", i, got, res.Counts)
				}
				if got := batchCounts[i*nLangs : (i+1)*nLangs]; !reflect.DeepEqual(got, res.Counts) {
					t.Errorf("doc %d: batch counts = %v, classify = %v", i, got, res.Counts)
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

// bloomDiff holds the exact classifier and the Bloom classifier the
// differential guarantee compares it with.
type bloomDiff struct {
	direct, bloom *Classifier
}

// newBloomDiff builds the exact and the parallel Bloom classifiers
// over ps.
func newBloomDiff(t testing.TB, ps *ProfileSet) *bloomDiff {
	t.Helper()
	build := func(b Backend) *Classifier {
		c, err := New(ps, b)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return &bloomDiff{direct: build(BackendDirect), bloom: build(BackendBloom)}
}

// check fails t unless, on doc, every n-gram the exact table accepts
// for a language is accepted by the Bloom filter of that language, and
// the Bloom backend's counts dominate the exact counts.
func (d *bloomDiff) check(t testing.TB, doc []byte) {
	t.Helper()
	gs := d.direct.ExtractGrams(nil, doc)
	dr := d.direct.Classify(doc)
	exact := make([]int, len(dr.Counts))
	member := make([]int, len(dr.Counts))
	c := d.bloom
	for j := range gs {
		// Counting one n-gram answers its membership per language.
		d.direct.countInto(exact, gs[j:j+1])
		c.countInto(member, gs[j:j+1])
		for i, lang := range d.direct.langs {
			if exact[i] > member[i] {
				t.Fatalf("%s false negative: lang %s gram %#x", c.Backend(), lang, gs[j])
			}
		}
	}
	br := c.Classify(doc)
	if br.NGrams != dr.NGrams {
		t.Fatalf("%s extracted %d n-grams, direct %d", c.Backend(), br.NGrams, dr.NGrams)
	}
	for i := range dr.Counts {
		if br.Counts[i] < dr.Counts[i] {
			t.Fatalf("%s count %d below exact count %d for %s", c.Backend(), br.Counts[i], dr.Counts[i], d.direct.langs[i])
		}
	}
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
	for _, backend := range equivBackends {
		det, err := NewDetector(ps, WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
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
					checkStream(t, det, s, doc, backend.String()+"/"+mode.name+"/"+lang)
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
	for _, backend := range []Backend{BackendBloom, BackendDirect} {
		det, err := NewDetector(ps, WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
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
				checkStream(t, det, s, doc, backend.String()+"/"+mode.name)
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
		det, err := NewDetector(ps, WithBackend(BackendBloom), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		nLangs := len(det.Languages())
		counts, got := det.DetectBatchCounts(nil, corpus.Texts(docs))
		if len(got) != len(docs) {
			t.Fatalf("workers=%d: %d results for %d docs", workers, len(got), len(docs))
		}
		for i, d := range docs {
			want := det.Classifier().Classify(d.Text)
			if got[i] != det.Detect(d.Text) || !reflect.DeepEqual(counts[i*nLangs:(i+1)*nLangs], want.Counts) {
				t.Errorf("workers=%d: result %d differs from sequential", workers, i)
			}
			if got[i].Lang != wantLangs[i] {
				t.Errorf("workers=%d: position %d classified %q, want %q", workers, i, got[i].Lang, wantLangs[i])
			}
		}
	}
}
