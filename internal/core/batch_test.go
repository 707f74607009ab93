package core

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"bloomlang/internal/corpus"
)

// miniDetector is the exact detector over the n = 6 mini set, which
// counts on the generic Stream path.
func miniDetector(t testing.TB) *Detector {
	t.Helper()
	det, err := NewDetector(sixGramSet(t))
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestDetectBatchDefaults(t *testing.T) {
	det := miniDetector(t)
	if det.Classifier() != det {
		t.Error("Classifier accessor is not the detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if got := det.DetectBatch([][]byte{}); len(got) != 0 {
		t.Errorf("DetectBatch of an empty batch returned %d matches", len(got))
	}
	doc := getMiniCorpus(t).Test["fi"][0].Text
	if got := det.DetectBatch([][]byte{doc}); len(got) != 1 || got[0] != det.Detect(doc) {
		t.Errorf("DetectBatch of one document = %+v, want [%+v]", got, det.Detect(doc))
	}
}

// TestDetectBatchMatchesSequential: the batch fan-out returns, per
// document, the sequential Detect match, whose count is the staged
// reference's count for its language.
func TestDetectBatchMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	det := miniDetector(t)
	docs := getMiniCorpus(t).TestDocuments("")
	par := det.DetectBatch(corpus.Texts(docs))
	if len(par) != len(docs) {
		t.Fatalf("DetectBatch returned %d matches for %d docs", len(par), len(docs))
	}
	for i, d := range docs {
		if want := det.Detect(d.Text); par[i] != want {
			t.Fatalf("doc %d: batch match %+v, sequential %+v", i, par[i], want)
		}
		if seq := classify(det, d.Text); par[i].NGrams != seq.NGrams || par[i].Count != slices.Max(seq.Counts) {
			t.Fatalf("doc %d: batch match %+v, sequential counts %v", i, par[i], seq.Counts)
		}
	}
}

func TestDetectBatchEmpty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	det := miniDetector(t)
	if got := det.DetectBatch(nil); len(got) != 0 {
		t.Errorf("DetectBatch(nil) returned %d matches", len(got))
	}
}

func TestDetectBatchMoreWorkersThanDocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(64))
	det := miniDetector(t)
	docs := getMiniCorpus(t).Test["en"][:2]
	matches := det.DetectBatch(corpus.Texts(docs))
	if len(matches) != 2 {
		t.Fatalf("got %d matches", len(matches))
	}
	for i, m := range matches {
		if m.Lang != "en" {
			t.Errorf("doc %d misclassified as %q", i, m.Lang)
		}
	}
}

func TestDetectBatchWorkerScalingConsistency(t *testing.T) {
	// Same inputs, different GOMAXPROCS: identical outputs.
	docs := getMiniCorpus(t).TestDocuments("")
	det := miniDetector(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r1 := det.DetectBatch(corpus.Texts(docs))
	runtime.GOMAXPROCS(8)
	r8 := det.DetectBatch(corpus.Texts(docs))
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("batch classified differently under GOMAXPROCS 1 and 8")
	}
}
