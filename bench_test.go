package bloomlang

import (
	"strconv"
	"sync"
	"testing"
)

// Benchmarks of the software classifier: the membership backend,
// worker and subsampling ablations, plus micro-benchmarks of the
// pipeline stages. The paper's tables and figures are benchmarked in
// cmd/experiments.

var (
	benchOnce    sync.Once
	benchBigDocs []Document // paper-sized documents for throughput runs
)

// benchFixtures returns the shared test corpus and profiles, plus
// paper-sized (1,300-word) documents in benchBigDocs.
func benchFixtures(b *testing.B) (*Corpus, *ProfileSet) {
	b.Helper()
	corp, ps := fixtures(b)
	benchOnce.Do(func() {
		big, err := GenerateCorpus(CorpusConfig{
			DocsPerLanguage: 20,
			WordsPerDoc:     1300,
			TrainFraction:   0.2,
			Seed:            17,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchBigDocs = big.TestDocuments("")
	})
	return corp, ps
}

// ---------------------------------------------------------------------------
// Ablation benchmarks: the same batch under each backend and worker
// count.

// BenchmarkAblationBackends compares the two membership backends on
// identical work: the paper's parallel Bloom filter and exact direct
// lookup.
func BenchmarkAblationBackends(b *testing.B) {
	corp, ps := benchFixtures(b)
	docs := corp.TestDocuments("")[:100]
	texts := DocumentTexts(docs)
	var bytes int64
	for _, d := range docs {
		bytes += int64(len(d.Text))
	}
	for _, backend := range []Backend{BackendBloom, BackendDirect} {
		b.Run(backend.String(), func(b *testing.B) {
			det, err := NewDetector(ps, WithBackend(backend))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.DetectBatch(texts)
			}
		})
	}
}

// BenchmarkAblationWorkers measures software engine scaling with worker
// count — the document-level parallelism knob.
func BenchmarkAblationWorkers(b *testing.B) {
	corp, ps := benchFixtures(b)
	docs := corp.TestDocuments("")
	texts := DocumentTexts(docs)
	var bytes int64
	for _, d := range docs {
		bytes += int64(len(d.Text))
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run("workers_"+strconv.Itoa(workers), func(b *testing.B) {
			det, err := NewDetector(ps, WithBackend(BackendBloom), WithWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.DetectBatch(texts)
			}
		})
	}
}

// BenchmarkAblationSubsample compares full-rate extraction with the
// 1-in-2 subsampling HAIL uses (§3.3, §5.2): half the lookups for a
// modest accuracy cost.
func BenchmarkAblationSubsample(b *testing.B) {
	corp, ps := benchFixtures(b)
	for _, sub := range []int{1, 2} {
		b.Run("subsample_"+strconv.Itoa(sub), func(b *testing.B) {
			cfg := ps.Config
			cfg.Subsample = sub
			psC := &ProfileSet{Config: cfg, Profiles: ps.Profiles}
			det, err := NewDetector(psC, WithBackend(BackendBloom))
			if err != nil {
				b.Fatal(err)
			}
			docs := corp.TestDocuments("")
			texts := DocumentTexts(docs)
			var bytes int64
			for _, d := range docs {
				bytes += int64(len(d.Text))
			}
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.DetectBatch(texts)
			}
			b.StopTimer()
			ev := Evaluate(det, corp)
			b.ReportMetric(100*ev.Average, "accuracy_pct")
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the pipeline stages.

func BenchmarkTrainProfiles(b *testing.B) {
	corp, _ := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(DefaultConfig(), corp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassifySingleDoc(b *testing.B) {
	_, ps := benchFixtures(b)
	det, err := NewDetector(ps, WithBackend(BackendBloom))
	if err != nil {
		b.Fatal(err)
	}
	doc := benchBigDocs[0].Text
	counts := make([]int, 0, len(det.Languages()))
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.DetectCounts(counts, doc)
	}
}
