// Hardware: drive the simulated XtremeData XD1000 end to end — program
// the Bloom filters through the command interface, stream documents
// over simulated DMA with both §5.4 host drivers, and read the match
// counters back, exactly as the paper's system operates.
package main

import (
	"fmt"
	"log"

	"bloomlang"
	"bloomlang/internal/ht"
	"bloomlang/internal/xd1000"
)

func main() {
	log.SetFlags(0)

	corp, err := bloomlang.GenerateCorpus(bloomlang.CorpusConfig{
		DocsPerLanguage: 40,
		WordsPerDoc:     1300, // ≈10 KB files, the paper's average
		TrainFraction:   0.1,
		Seed:            7,
	})
	if err != nil {
		log.Fatal(err)
	}
	profiles, err := bloomlang.Train(bloomlang.DefaultConfig(), corp)
	if err != nil {
		log.Fatal(err)
	}

	sys, err := xd1000.New(profiles, xd1000.Options{})
	if err != nil {
		log.Fatal(err)
	}
	build := sys.Build()
	fmt.Printf("EP2S180 build: %d ALUTs (%.0f%% of device), %d M4Ks, %.0f MHz\n",
		build.Logic, 100*build.LogicUtilization, build.M4Ks, build.FreqMHz)
	fmt.Printf("datapath: %d n-grams/clock, theoretical peak %.0f MB/s (%.2f GB/s)\n\n",
		sys.Device().NGramsPerClock(), sys.PeakMBPerSec(), sys.PeakMBPerSec()/1024)

	// Preprocessing step: program every language profile through the
	// register interface (§4).
	prog := sys.Program()
	fmt.Printf("programmed %d language profiles in %v (simulated)\n\n", len(profiles.Languages()), prog)

	// Stream the combined test set with the asynchronous driver.
	docs := corp.TestDocuments("")
	rep, err := sys.Stream(docs, xd1000.ModeAsync, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("asynchronous driver: %d docs, %.1f MB in %v simulated -> %.0f MB/s\n",
		rep.Docs, float64(rep.Bytes)/1e6, rep.SimTime, rep.MBPerSec())
	fmt.Printf("accuracy %.2f%%, checksum failures %d\n\n", 100*rep.Accuracy(), rep.ChecksumFailures)

	// Inspect a few per-document results, the Query Result blocks the
	// hardware DMAs back (§4).
	langs := profiles.Languages()
	fmt.Println("first three Query Result blocks:")
	for _, dr := range rep.Results[:3] {
		fmt.Printf("  doc lang=%s  ngrams=%d  checksumOK=%v  counts=", dr.Doc.Language, dr.Result.NGrams, dr.ChecksumOK)
		for i, l := range langs {
			fmt.Printf("%s:%d ", l, dr.Result.Counts[i])
		}
		fmt.Println()
	}

	// Compare against the interrupt-synchronized driver (the paper's
	// first software version, half the throughput).
	sysSync, err := xd1000.New(profiles, xd1000.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sysSync.Program()
	repSync, err := sysSync.Stream(docs, xd1000.ModeSync, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsynchronous driver: %.0f MB/s (%.2fx slower — \"interrupt based synchronization\n"+
		"produces detrimental performance for a streaming architecture\", §5.4)\n",
		repSync.MBPerSec(), rep.MBPerSec()/repSync.MBPerSec())

	// §5.5 projection: remove the platform's 500 MB/s cap.
	sysFast, err := xd1000.New(profiles, xd1000.Options{Link: ht.ImprovedConfig()})
	if err != nil {
		log.Fatal(err)
	}
	sysFast.Program()
	repFast, err := sysFast.Stream(docs, xd1000.ModeAsync, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("improved link (1.6 GB/s): %.0f MB/s — approaching the %.0f MB/s datapath peak\n",
		repFast.MBPerSec(), sysFast.PeakMBPerSec())
}
