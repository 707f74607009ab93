package core

// Equivalence guarantees the serving layer leans on: every backend —
// the fused blocked kernel included — produces the identical decision
// on every input path (one-shot bytes, reader, incremental stream,
// batch), a document fed to DocumentStream in any chunking — including
// splits landing mid-n-gram — produces the identical Result as
// one-shot classification, and the engine's parallel fan-out returns
// results in input order at any worker count.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"bloomlang/internal/corpus"
)

// equivBackends is the full built-in backend matrix the equivalence
// suite runs over.
var equivBackends = []Backend{BackendBloom, BackendDirect, BackendClassic, BackendBlocked}

// TestDetectEquivalenceAcrossPaths pins Detect ≡ DetectCounts ≡
// Classify ≡ Rank over every built-in backend and every input path:
// the one-shot byte path, the io.Reader path, the incremental stream
// path, and the batch path must all return the identical Match, Rank's
// head must agree with Detect, and Match and counts must be derivable
// from the legacy Classify result.
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
			batch := det.DetectBatch(docs)
			for i, doc := range docs {
				want := det.Detect(doc.Text)

				if got, err := det.DetectReader(bytes.NewReader(doc.Text)); err != nil || got != want {
					t.Errorf("doc %d: reader path = %+v (%v), detect = %+v", i, got, err, want)
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

				res := clf.Classify(doc.Text)
				if got := det.MatchResult(res); got != want {
					t.Errorf("doc %d: classify-derived match = %+v, detect = %+v", i, got, want)
				}
				if counts, got := det.DetectCounts(nil, doc.Text); got != want || !reflect.DeepEqual(counts, res.Counts) {
					t.Errorf("doc %d: DetectCounts = %v %+v, classify = %v %+v", i, counts, got, res.Counts, want)
				}
			}
		})
	}
}

// TestBlockedNeverFalseNegativeVsDirect is the deterministic half of
// the differential guarantee (the fuzz half lives in
// FuzzBlockedNoFalseNegativesVsDirect): on real corpus documents,
// every n-gram the exact direct table accepts must also be accepted
// by the blocked filter, so the blocked per-language counts dominate
// the exact counts.
func TestBlockedNeverFalseNegativeVsDirect(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	direct, err := New(ps, BackendDirect)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := New(ps, BackendBlocked)
	if err != nil {
		t.Fatal(err)
	}
	corp := getMiniCorpus(t)
	for _, lang := range []string{"en", "es", "fi", "pt"} {
		for _, doc := range corp.Test[lang][:5] {
			gs := direct.ExtractGrams(nil, doc.Text)
			for _, g := range gs {
				for i := range direct.matchers {
					if direct.matchers[i].Test(g) && !blocked.matchers[i].Test(g) {
						t.Fatalf("blocked false negative: lang %s gram %#x", direct.langs[i], g)
					}
				}
			}
			dr, br := direct.Classify(doc.Text), blocked.Classify(doc.Text)
			for i := range dr.Counts {
				if br.Counts[i] < dr.Counts[i] {
					t.Errorf("%s: blocked count %d below exact count %d for %s",
						lang, br.Counts[i], dr.Counts[i], direct.langs[i])
				}
			}
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
		c, err := New(ps, backend)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		for _, lang := range []string{"en", "es", "fi", "pt"} {
			doc := getMiniCorpus(t).Test[lang][0].Text
			want := c.Classify(doc)
			s := c.NewStream()
			for trial := 0; trial < 20; trial++ {
				pts := splitPoints(rng, len(doc), 1+rng.Intn(12))
				s.Reset()
				for i := 1; i < len(pts); i++ {
					s.Write(doc[pts[i-1]:pts[i]])
				}
				if got := s.Result(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: split %v: stream %+v != one-shot %+v",
						backend, lang, pts, got, want)
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
	for _, backend := range []Backend{BackendBloom, BackendBlocked} {
		c, err := New(ps, backend)
		if err != nil {
			t.Fatal(err)
		}
		doc := getMiniCorpus(t).Test["es"][0].Text
		if len(doc) > 64 {
			doc = doc[:64]
		}
		want := c.Classify(doc)
		s := c.NewStream()
		for cut := 0; cut <= len(doc); cut++ {
			s.Reset()
			s.Write(doc[:cut])
			s.Write(doc[cut:])
			if got := s.Result(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: cut at %d: stream %+v != one-shot %+v", backend, cut, got, want)
			}
		}
	}
}

func TestClassifyAllPreservesInputOrder(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	c, err := New(ps, BackendBloom)
	if err != nil {
		t.Fatal(err)
	}
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
	want := make([]Result, len(docs))
	for i, d := range docs {
		want[i] = c.Classify(d.Text)
	}
	for _, workers := range []int{1, 3, len(docs) * 4} {
		e := NewEngine(c, workers)
		got := e.ClassifyAll(docs)
		if len(got) != len(docs) {
			t.Fatalf("workers=%d: %d results for %d docs", workers, len(got), len(docs))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d: result %d differs from sequential", workers, i)
			}
			if lang := got[i].BestLanguage(c.Languages()); lang != wantLangs[i] {
				t.Errorf("workers=%d: position %d classified %q, want %q", workers, i, lang, wantLangs[i])
			}
		}
	}
}
