// Webfilter: the paper's motivating workload (§1) — triaging a large
// mixed-language document stream, as a search-engine indexer or spam
// filter front-end would, routing each document to a language-specific
// pipeline. Demonstrates the parallel software engine and its scaling
// with GOMAXPROCS.
package main

import (
	"fmt"
	"log"
	"runtime"

	"bloomlang"
)

func main() {
	log.SetFlags(0)

	corp, err := bloomlang.GenerateCorpus(bloomlang.CorpusConfig{
		DocsPerLanguage: 300,
		WordsPerDoc:     400,
		TrainFraction:   0.1,
		Seed:            3,
	})
	if err != nil {
		log.Fatal(err)
	}
	profiles, err := bloomlang.Train(bloomlang.DefaultConfig(), corp)
	if err != nil {
		log.Fatal(err)
	}
	det, err := bloomlang.NewDetector(profiles, bloomlang.WithBackend(bloomlang.BackendBloom))
	if err != nil {
		log.Fatal(err)
	}

	// The incoming "web crawl": all languages interleaved.
	stream := corp.TestDocuments("")
	var total int64
	for _, d := range stream {
		total += int64(len(d.Text))
	}
	fmt.Printf("incoming stream: %d documents, %.1f MB, %d languages mixed\n\n",
		len(stream), float64(total)/1e6, len(corp.Languages))

	// Route documents into per-language buckets.
	buckets := map[string]int{}
	misrouted := 0
	for i, m := range det.DetectBatch(bloomlang.DocumentTexts(stream)) {
		buckets[m.Lang]++
		if m.Lang != stream[i].Language {
			misrouted++
		}
	}
	fmt.Println("routing buckets:")
	for _, lang := range det.Languages() {
		fmt.Printf("  %-3s %-12s %5d docs\n", lang, bloomlang.LanguageName(lang), buckets[lang])
	}
	fmt.Printf("misrouted: %d of %d (%.2f%%)\n\n", misrouted, len(stream),
		100*float64(misrouted)/float64(len(stream)))

	// GOMAXPROCS scaling: the software counterpart of the hardware's
	// document-level parallelism. DetectBatch runs on GOMAXPROCS
	// goroutines, so the one detector serves every step.
	fmt.Println("software engine scaling (same stream):")
	maxP := runtime.GOMAXPROCS(0)
	for p := 1; p <= maxP; p *= 2 {
		runtime.GOMAXPROCS(p)
		rep := bloomlang.Measure(det, stream)
		fmt.Printf("  GOMAXPROCS %2d: %7.1f MB/s\n", p, rep.MBPerSec())
	}
	runtime.GOMAXPROCS(maxP)
	fmt.Printf("\n(the paper's FPGA runs this at 470 MB/s on a single XD1000 socket;\n" +
		"run examples/hardware for the simulated system)\n")
}
