package bloomlang

import (
	"testing"
)

// BenchmarkDetector measures the warm single-document hot path: one
// paper-sized document through alphabet translation, n-gram extraction,
// membership counting and winner selection. The allocation discipline
// bar is 0 allocs/op — all working memory comes from the detector's
// scratch pool.
func BenchmarkDetector(b *testing.B) {
	_, ps := benchFixtures(b)
	det, err := NewDetector(ps)
	if err != nil {
		b.Fatal(err)
	}
	doc := benchBigDocs[0].Text
	det.Detect(doc) // warm the scratch pool
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(doc)
	}
}

// BenchmarkDetectorBackends runs the same hot path on every built-in
// membership backend.
func BenchmarkDetectorBackends(b *testing.B) {
	_, ps := benchFixtures(b)
	doc := benchBigDocs[0].Text
	for _, backend := range []Backend{BackendBloom, BackendDirect} {
		b.Run(backend.String(), func(b *testing.B) {
			det, err := NewDetector(ps, WithBackend(backend))
			if err != nil {
				b.Fatal(err)
			}
			det.Detect(doc)
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.Detect(doc)
			}
		})
	}
}

// BenchmarkDetectSpans measures the mixed-language segmentation hot
// path on every backend: one counting pass over a paper-sized document,
// cut into 16-gram chunks, one cumulative count row and one Viterbi
// step per chunk. With pooled scratch warm and a reused destination
// slice the discipline bar is 0 allocs/op; the gap to
// BenchmarkDetectorBackends on the same backend is the cost of the
// chunk rows, the steps and the trace back (scripts/bench.sh gates the
// direct-lookup ratio).
func BenchmarkDetectSpans(b *testing.B) {
	_, ps := benchFixtures(b)
	doc := benchBigDocs[0].Text
	cfg := SegmentConfig{Stride: 16, Penalty: 8}
	for _, backend := range []Backend{BackendBloom, BackendDirect} {
		b.Run(backend.String(), func(b *testing.B) {
			det, err := NewDetector(ps, WithBackend(backend))
			if err != nil {
				b.Fatal(err)
			}
			dst, err := det.AppendSpans(nil, doc, cfg) // warm the segment pool
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = det.AppendSpans(dst[:0], doc, cfg)
			}
		})
	}
}

// BenchmarkDetectorRank measures the ranked-results path (allocates the
// returned slice by design).
func BenchmarkDetectorRank(b *testing.B) {
	_, ps := benchFixtures(b)
	det, err := NewDetector(ps)
	if err != nil {
		b.Fatal(err)
	}
	doc := benchBigDocs[0].Text
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Rank(doc, 3)
	}
}

// BenchmarkDetectorBatch measures worker fan-out over the paper-sized
// document set.
func BenchmarkDetectorBatch(b *testing.B) {
	_, ps := benchFixtures(b)
	det, err := NewDetector(ps)
	if err != nil {
		b.Fatal(err)
	}
	texts := DocumentTexts(benchBigDocs)
	var bytes int64
	for _, t := range texts {
		bytes += int64(len(t))
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.DetectBatch(texts)
	}
}
