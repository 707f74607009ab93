// Command xd1000sim runs the simulated XtremeData XD1000 system over a
// corpus: programs the Bloom filter profiles through the command
// interface, streams the test documents via simulated DMA, and reports
// throughput and accuracy for both §5.4 host drivers.
//
// Usage:
//
//	xd1000sim [-docs 60] [-words 1300] [-seed 1] [-mode both|sync|async]
//	          [-k 4] [-m 16384] [-improved-link] [-lang es]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"bloomlang"
	"bloomlang/internal/ht"
	"bloomlang/internal/xd1000"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xd1000sim: ")
	docs := flag.Int("docs", 60, "documents per language")
	words := flag.Int("words", 1300, "mean words per document")
	seed := flag.Int64("seed", 1, "corpus/hash seed")
	mode := flag.String("mode", "both", "driver mode: sync, async or both")
	k := flag.Int("k", 4, "hash functions per Bloom filter")
	m := flag.Uint("m", 16*1024, "bits per bit-vector (power of two)")
	improved := flag.Bool("improved-link", false, "remove the 500 MB/s platform cap (§5.5 projection)")
	lang := flag.String("lang", "", "stream a single language's documents (default: all, interleaved)")
	trace := flag.Int("trace", 0, "print the first N simulated events (0 = off)")
	flag.Parse()

	corp, err := bloomlang.GenerateCorpus(bloomlang.CorpusConfig{
		DocsPerLanguage: *docs,
		WordsPerDoc:     *words,
		TrainFraction:   0.10,
		Seed:            *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := bloomlang.DefaultConfig()
	cfg.K = *k
	cfg.MBits = uint32(*m)
	cfg.Seed = *seed
	ps, err := bloomlang.Train(cfg, corp)
	if err != nil {
		log.Fatal(err)
	}

	stream := corp.TestDocuments(*lang)
	if len(stream) == 0 {
		log.Fatalf("no test documents for language %q", *lang)
	}

	modes := []xd1000.Mode{xd1000.ModeSync, xd1000.ModeAsync}
	switch *mode {
	case "sync":
		modes = modes[:1]
	case "async":
		modes = modes[1:]
	case "both":
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	for _, md := range modes {
		opts := xd1000.Options{}
		if *improved {
			opts.Link = ht.ImprovedConfig()
		}
		var tr *xd1000.Trace
		if *trace > 0 {
			tr = xd1000.NewTrace(*trace)
			opts.Trace = tr
		}
		sys, err := xd1000.New(ps, opts)
		if err != nil {
			log.Fatal(err)
		}
		build := sys.Build()
		fmt.Printf("== %s driver ==\n", md)
		fmt.Printf("build: %d languages, %d M4Ks, %.0f MHz, %d n-grams/clock (peak %.0f MB/s)\n",
			len(ps.Languages()), build.M4Ks, build.FreqMHz,
			sys.Device().NGramsPerClock(), sys.PeakMBPerSec())
		prog := sys.Program()
		rep, err := sys.Stream(stream, md, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("programmed %d profiles in %v (simulated)\n", len(ps.Languages()), prog)
		fmt.Printf("streamed %d documents, %.1f MB in %v (simulated)\n",
			rep.Docs, float64(rep.Bytes)/1e6, rep.SimTime)
		fmt.Printf("throughput: %.1f MB/s (%.1f MB/s including programming)\n",
			rep.MBPerSec(), rep.MBPerSecWithProgramming())
		fmt.Printf("accuracy: %.2f%%, checksum failures: %d\n\n",
			100*rep.Accuracy(), rep.ChecksumFailures)
		if tr != nil {
			fmt.Println("simulated event timeline:")
			if _, err := tr.WriteTo(os.Stdout); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
	}
}
