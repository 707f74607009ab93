package bloomlang

import (
	"reflect"
	"testing"
	"time"
)

func evalDetector(t testing.TB) *Detector {
	t.Helper()
	_, ps := fixtures(t)
	det, err := NewDetector(ps, WithBackend(BackendBloom))
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestMeasure(t *testing.T) {
	det := evalDetector(t)
	corp, _ := fixtures(t)
	docs := corp.TestDocuments("")
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
	det := evalDetector(t)
	corp, _ := fixtures(t)
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
	// The prediction is the raw-count winner: under the default policy
	// Match.Lang is the highest DetectCounts count.
	for _, truth := range corp.Languages {
		want := map[string]int{}
		for _, d := range corp.Test[truth] {
			counts, m := det.DetectCounts(nil, d.Text)
			lang, _ := countsWinner(det.Languages(), counts, m.NGrams)
			want[lang]++
		}
		if !reflect.DeepEqual(ev.Confusion[truth], want) {
			t.Errorf("%s: confusion row %v, raw-count winners %v", truth, ev.Confusion[truth], want)
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
