package core

import (
	"reflect"
	"testing"
	"time"
)

func miniDetector(t testing.TB, workers int) *Detector {
	t.Helper()
	det, err := NewDetector(trainMini(t, Config{TopT: 1000}), WithBackend(BackendBloom), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestEngineDefaults(t *testing.T) {
	det := miniDetector(t, 0)
	if det.Workers() <= 0 {
		t.Errorf("Workers = %d, want positive default", det.Workers())
	}
	if det.Classifier() == nil {
		t.Error("Classifier accessor nil")
	}
}

// TestClassifyAllMatchesSequential: the batch fan-out returns, per
// document, the sequential Detect match and the raw Classify counts.
func TestClassifyAllMatchesSequential(t *testing.T) {
	det := miniDetector(t, 8)
	docs := getMiniCorpus(t).TestDocuments("")
	nLangs := len(det.Languages())
	counts, par := det.DetectBatchCounts(nil, docs)
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

func TestClassifyAllEmpty(t *testing.T) {
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

func TestClassifyAllMoreWorkersThanDocs(t *testing.T) {
	det := miniDetector(t, 64)
	docs := getMiniCorpus(t).Test["en"][:2]
	prefix := []int{-1, -2}
	counts, matches := det.DetectBatchCounts(prefix, docs)
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

func TestMeasure(t *testing.T) {
	det := miniDetector(t, 0)
	docs := getMiniCorpus(t).TestDocuments("")
	rep := Measure(det, docs)
	if rep.Docs != len(docs) {
		t.Errorf("Docs = %d, want %d", rep.Docs, len(docs))
	}
	if rep.Bytes <= 0 {
		t.Error("Bytes not positive")
	}
	if rep.Elapsed <= 0 {
		t.Error("Elapsed not positive")
	}
	if rep.MBPerSec() <= 0 {
		t.Error("MBPerSec not positive")
	}
}

func TestThroughputReportMath(t *testing.T) {
	rep := ThroughputReport{Bytes: 10 << 20, Elapsed: 2 * time.Second}
	if got := rep.MBPerSec(); got < 4.99 || got > 5.01 {
		t.Errorf("MBPerSec = %v, want 5", got)
	}
	zero := ThroughputReport{Bytes: 100}
	if zero.MBPerSec() != 0 {
		t.Error("zero elapsed must give zero throughput")
	}
}

func TestEvaluate(t *testing.T) {
	det := miniDetector(t, 0)
	corp := getMiniCorpus(t)
	ev := Evaluate(det, corp)
	if ev.Docs == 0 {
		t.Fatal("no documents evaluated")
	}
	if len(ev.PerLanguage) != len(corp.Languages) {
		t.Fatalf("PerLanguage has %d entries, want %d", len(ev.PerLanguage), len(corp.Languages))
	}
	if ev.Average < 0.9 {
		t.Errorf("average accuracy %.3f below 0.9 on easy corpus", ev.Average)
	}
	if ev.Min > ev.Average || ev.Average > ev.Max {
		t.Errorf("Min %.3f / Average %.3f / Max %.3f not ordered", ev.Min, ev.Average, ev.Max)
	}
	// The prediction is the Classify winner: under the default policy
	// Match.Lang and Result.BestLanguage agree.
	for _, truth := range corp.Languages {
		want := map[string]int{}
		for _, d := range corp.Test[truth] {
			want[det.Classifier().Classify(d.Text).BestLanguage(det.Languages())]++
		}
		if !reflect.DeepEqual(ev.Confusion[truth], want) {
			t.Errorf("%s: confusion row %v, Classify winners %v", truth, ev.Confusion[truth], want)
		}
	}
	// Confusion diagonal must dominate.
	for truth, row := range ev.Confusion {
		diag := row[truth]
		for pred, n := range row {
			if pred != truth && n > diag {
				t.Errorf("%s: confusion row dominated by %s (%d > %d)", truth, pred, n, diag)
			}
		}
	}
}

func TestTopConfusion(t *testing.T) {
	ev := Evaluation{Confusion: map[string]map[string]int{
		"es": {"es": 90, "pt": 8, "fr": 2},
		"fi": {"fi": 100},
	}}
	truth, pred, count, ok := ev.TopConfusion()
	if !ok || truth != "es" || pred != "pt" || count != 8 {
		t.Errorf("TopConfusion = %s->%s x%d ok=%v, want es->pt x8", truth, pred, count, ok)
	}
	perfect := Evaluation{Confusion: map[string]map[string]int{"en": {"en": 5}}}
	if _, _, _, ok := perfect.TopConfusion(); ok {
		t.Error("perfect evaluation reported a confusion")
	}
}

func TestEngineWorkerScalingConsistency(t *testing.T) {
	// Same inputs, different worker counts: identical outputs.
	docs := getMiniCorpus(t).TestDocuments("")
	c1, r1 := miniDetector(t, 1).DetectBatchCounts(nil, docs)
	c8, r8 := miniDetector(t, 8).DetectBatchCounts(nil, docs)
	if !reflect.DeepEqual(r1, r8) || !reflect.DeepEqual(c1, c8) {
		t.Fatal("batch classified differently under different worker counts")
	}
}
