// Tradeoff: reproduce §5.2's design-space exploration — sweep the Bloom
// filter parameters (k hash functions, m-bit vectors) and print, for
// each point, the expected false positive rate, measured accuracy,
// embedded RAM budget per language, and how many languages the EP2S180
// then supports at full throughput. This is the accuracy/parallelism
// tradeoff that motivates the paper's final 30-language configuration.
package main

import (
	"fmt"
	"log"

	"bloomlang"
)

func main() {
	log.SetFlags(0)

	corp, err := bloomlang.GenerateCorpus(bloomlang.CorpusConfig{
		DocsPerLanguage: 120,
		WordsPerDoc:     300,
		TrainFraction:   0.15,
		Seed:            5,
	})
	if err != nil {
		log.Fatal(err)
	}
	base := bloomlang.DefaultConfig()
	profiles, err := bloomlang.Train(base, corp)
	if err != nil {
		log.Fatal(err)
	}
	dev := bloomlang.EP2S180()

	fmt.Println("m (Kbit)  k  exp FP/1000  accuracy   Kbit/lang  languages@8ngrams/clk")
	fmt.Println("-----------------------------------------------------------------------")
	for _, point := range []struct {
		mKbit int
		k     int
	}{
		{16, 4}, {16, 3}, {16, 2},
		{8, 4}, {8, 3}, {8, 2},
		{4, 6}, {4, 5}, {4, 4},
	} {
		cfg := base
		cfg.K = point.k
		cfg.MBits = uint32(point.mKbit) * 1024
		ps := &bloomlang.ProfileSet{Config: cfg, Profiles: profiles.Profiles}
		det, err := bloomlang.NewDetector(ps, bloomlang.WithBackend(bloomlang.BackendBloom))
		if err != nil {
			log.Fatal(err)
		}
		ev := bloomlang.Evaluate(det, corp)
		maxLangs := bloomlang.MaxLanguages(point.k, cfg.MBits, dev)
		fmt.Printf("%8d  %d  %11.1f  %7.2f%%  %9d  %d\n",
			point.mKbit, point.k,
			1000*cfg.ExpectedFalsePositiveRate(),
			100*ev.Average,
			point.k*point.mKbit,
			maxLangs,
		)
	}

	fmt.Println()
	fmt.Println("the paper picks k=6, m=4 Kbit: 24 Kbit per language, >99% accuracy,")
	fmt.Println("thirty languages on the EP2S180 (§5.2, Table 3)")
}
