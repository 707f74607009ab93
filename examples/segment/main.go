// Segment: mixed-language span detection on the default detector's
// exact kernel. Trains profiles on a synthetic corpus, builds a
// mixed-language document with known boundaries, and recovers the
// per-language spans three ways: one-shot DetectSpans, the streaming
// segmenting Stream, and against the generator's ground truth.
package main

import (
	"fmt"
	"log"

	"bloomlang"
)

func main() {
	log.SetFlags(0)

	// 1. Train profiles (the paper's ten languages).
	corp, err := bloomlang.GenerateCorpus(bloomlang.CorpusConfig{
		DocsPerLanguage: 80,
		WordsPerDoc:     300,
		TrainFraction:   0.2,
		Seed:            42,
	})
	if err != nil {
		log.Fatal(err)
	}
	profiles, err := bloomlang.Train(bloomlang.DefaultConfig(), corp)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The default detector counts on the exact direct table, whose
	// kernel scores every language per n-gram in one table load, and
	// segmentation counts each n-gram exactly once: one count row per
	// chunk, one Viterbi step per row.
	det, err := bloomlang.NewDetector(profiles)
	if err != nil {
		log.Fatal(err)
	}

	// 3. A deterministic mixed document with known byte boundaries —
	// the same generator cmd/corpusgen -mixed and the golden
	// segmentation gate use.
	docs, err := bloomlang.GenerateMixedCorpus(bloomlang.MixedCorpusConfig{
		Languages:       []string{"en", "fi", "fr", "cs"},
		Docs:            1,
		SegmentsPerDoc:  4,
		WordsPerSegment: 70,
		Seed:            9,
	})
	if err != nil {
		log.Fatal(err)
	}
	doc := docs[0]
	fmt.Printf("ground truth (%d bytes):\n", len(doc.Text))
	for _, seg := range doc.Segments {
		fmt.Printf("  %6d-%-6d %s\n", seg.Start, seg.End, bloomlang.LanguageName(seg.Lang))
	}

	// 4. One-shot segmentation: the best labelling of 16-gram chunks,
	// each language change costing 8 n-gram matches (the defaults).
	segCfg := bloomlang.SegmentConfig{Stride: 16, Penalty: 8}
	spans, err := det.DetectSpans(doc.Text, segCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndetected spans:")
	for _, sp := range spans {
		fmt.Printf("  %6d-%-6d %-12s score %.2f, margin %.2f\n",
			sp.Start, sp.End, bloomlang.LanguageName(sp.Lang), sp.Score, sp.Margin)
	}

	// 5. The same answer incrementally: feed the document in small
	// chunks and watch spans finalize once every surviving path agrees
	// on them.
	st, err := det.NewSpanStream(segCfg)
	if err != nil {
		log.Fatal(err)
	}
	finalized := 0
	for off := 0; off < len(doc.Text); off += 200 {
		end := off + 200
		if end > len(doc.Text) {
			end = len(doc.Text)
		}
		st.Write(doc.Text[off:end])
		for _, sp := range st.Spans()[finalized:] {
			fmt.Printf("stream: after %d bytes, span [%d,%d) %s is final\n",
				end, sp.Start, sp.End, sp.Lang)
			finalized++
		}
	}
	all := st.Finish()
	fmt.Printf("stream: finished with %d spans (identical to one-shot: %v)\n",
		len(all), equalSpans(all, spans))
}

func equalSpans(a, b []bloomlang.Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
