package bloomlang

import (
	"time"

	"bloomlang/internal/corpus"
)

// This file scores a Detector over a labelled corpus: the accuracy and
// throughput measurements of §5.1 and §5.4.

// ThroughputReport is a measured software classification run.
type ThroughputReport struct {
	// Bytes is the total input size processed.
	Bytes int64
	// Elapsed is the wall-clock time for classification only (documents
	// already in memory, matching §5.4's measurement methodology).
	Elapsed time.Duration
	// Docs is the number of documents classified.
	Docs int
}

// MBPerSec returns throughput in the paper's MB/sec (2^20 bytes).
func (r ThroughputReport) MBPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / (1 << 20) / r.Elapsed.Seconds()
}

// Measure classifies all documents through det.DetectBatch and reports
// wall-clock throughput. The matches are discarded; use DetectBatch
// when they matter.
func Measure(det *Detector, docs []Document) ThroughputReport {
	texts := corpus.Texts(docs)
	var bytes int64
	for _, t := range texts {
		bytes += int64(len(t))
	}
	start := time.Now()
	det.DetectBatch(texts)
	return ThroughputReport{Bytes: bytes, Elapsed: time.Since(start), Docs: len(docs)}
}

// Evaluation aggregates classification accuracy over a labelled test
// set, in the form the paper reports: per-language accuracy, the average
// across languages, and the confusion structure behind §5.2's
// observations.
type Evaluation struct {
	// Languages is the label order for the matrices below.
	Languages []string
	// PerLanguage maps language code to fraction of its test documents
	// classified correctly.
	PerLanguage map[string]float64
	// Average is the unweighted mean of PerLanguage (the paper's
	// "average accuracy").
	Average float64
	// Min and Max are the extreme per-language accuracies (the paper's
	// "varies between 99.05% and 99.76%").
	Min, Max float64
	// Confusion[truth][predicted] counts documents of language truth
	// classified as predicted.
	Confusion map[string]map[string]int
	// Docs is the number of test documents evaluated.
	Docs int
}

// Evaluate classifies the corpus test split through det.DetectBatch and
// scores it. A document det answers Unknown counts as predicted "";
// under the default policy that happens only for documents without
// n-grams.
func Evaluate(det *Detector, corp *Corpus) Evaluation {
	langs := det.Languages()
	ev := Evaluation{
		Languages:   langs,
		PerLanguage: make(map[string]float64, len(langs)),
		Confusion:   make(map[string]map[string]int, len(langs)),
	}
	for _, truth := range corp.Languages {
		docs := corp.Test[truth]
		if len(docs) == 0 {
			continue
		}
		row := make(map[string]int)
		correct := 0
		for _, m := range det.DetectBatch(corpus.Texts(docs)) {
			pred := m.Lang
			row[pred]++
			if pred == truth {
				correct++
			}
		}
		ev.Confusion[truth] = row
		acc := float64(correct) / float64(len(docs))
		ev.PerLanguage[truth] = acc
		ev.Docs += len(docs)
	}
	first := true
	for _, acc := range ev.PerLanguage {
		ev.Average += acc
		if first || acc < ev.Min {
			ev.Min = acc
		}
		if first || acc > ev.Max {
			ev.Max = acc
		}
		first = false
	}
	if n := len(ev.PerLanguage); n > 0 {
		ev.Average /= float64(n)
	}
	return ev
}

// TopConfusion returns the most common misclassification as
// (truth, predicted, count), or ok=false if every document was correct.
func (ev Evaluation) TopConfusion() (truth, predicted string, count int, ok bool) {
	for t, row := range ev.Confusion {
		for p, n := range row {
			if p == t || p == "" {
				continue
			}
			if n > count {
				truth, predicted, count, ok = t, p, n, true
			}
		}
	}
	return truth, predicted, count, ok
}
