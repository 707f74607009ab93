package core

import (
	"reflect"
	"testing"

	"bloomlang/internal/corpus"
)

func miniDetector(t testing.TB, workers int) *Detector {
	t.Helper()
	det, err := NewDetector(trainMini(t, Config{TopT: 1000}), WithBackend(BackendBloom), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestDetectBatchDefaults(t *testing.T) {
	det := miniDetector(t, 0)
	if det.Workers() <= 0 {
		t.Errorf("Workers = %d, want positive default", det.Workers())
	}
	if det.Classifier() == nil {
		t.Error("Classifier accessor nil")
	}
}

// TestDetectBatchMatchesSequential: the batch fan-out returns, per
// document, the sequential Detect match and the raw Classify counts.
func TestDetectBatchMatchesSequential(t *testing.T) {
	det := miniDetector(t, 8)
	docs := getMiniCorpus(t).TestDocuments("")
	nLangs := len(det.Languages())
	counts, par := det.DetectBatchCounts(nil, corpus.Texts(docs))
	if len(counts) != len(docs)*nLangs {
		t.Fatalf("DetectBatchCounts appended %d counts for %d docs x %d languages", len(counts), len(docs), nLangs)
	}
	for i, d := range docs {
		if want := det.Detect(d.Text); par[i] != want {
			t.Fatalf("doc %d: batch match %+v, sequential %+v", i, par[i], want)
		}
		if seq := det.Classifier().Classify(d.Text); !reflect.DeepEqual(counts[i*nLangs:(i+1)*nLangs], seq.Counts) {
			t.Fatalf("doc %d: batch counts %v, sequential %v", i, counts[i*nLangs:(i+1)*nLangs], seq.Counts)
		}
	}
}

func TestDetectBatchEmpty(t *testing.T) {
	det := miniDetector(t, 4)
	if got := det.DetectBatch(nil); len(got) != 0 {
		t.Errorf("DetectBatch(nil) returned %d matches", len(got))
	}
	dst := []int{7}
	counts, got := det.DetectBatchCounts(dst, nil)
	if len(got) != 0 || !reflect.DeepEqual(counts, dst) {
		t.Errorf("DetectBatchCounts(dst, nil) = %v, %d matches; want dst unchanged and none", counts, len(got))
	}
}

func TestDetectBatchMoreWorkersThanDocs(t *testing.T) {
	det := miniDetector(t, 64)
	docs := getMiniCorpus(t).Test["en"][:2]
	prefix := []int{-1, -2}
	counts, matches := det.DetectBatchCounts(prefix, corpus.Texts(docs))
	if len(matches) != 2 {
		t.Fatalf("got %d matches", len(matches))
	}
	if len(counts) != len(prefix)+2*len(det.Languages()) || counts[0] != -1 || counts[1] != -2 {
		t.Fatalf("counts %v did not append after the caller's prefix", counts)
	}
	for i, m := range matches {
		if m.Lang != "en" {
			t.Errorf("doc %d misclassified as %q", i, m.Lang)
		}
	}
}

func TestDetectBatchWorkerScalingConsistency(t *testing.T) {
	// Same inputs, different worker counts: identical outputs.
	docs := getMiniCorpus(t).TestDocuments("")
	c1, r1 := miniDetector(t, 1).DetectBatchCounts(nil, corpus.Texts(docs))
	c8, r8 := miniDetector(t, 8).DetectBatchCounts(nil, corpus.Texts(docs))
	if !reflect.DeepEqual(r1, r8) || !reflect.DeepEqual(c1, c8) {
		t.Fatal("batch classified differently under different worker counts")
	}
}
