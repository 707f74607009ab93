// Command designspace explores the §5.2 design space: for every (k, m)
// Bloom filter shape it prints the expected false positive rate at full
// profile load, the on-chip storage per language, the number of
// languages the EP2S180 supports at 8 n-grams/clock (with and without
// infrastructure overhead, and with 1-in-2 subsampling), and the
// modelled clock — the data behind the paper's choice of k=6, m=4 Kbit
// for the final thirty-language build.
//
// Usage:
//
//	designspace [-load 5000] [-maxk 8]
package main

import (
	"flag"
	"fmt"
	"log"

	"bloomlang/internal/bloom"
	"bloomlang/internal/fpga"
	"bloomlang/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("designspace: ")
	load := flag.Int("load", 5000, "profile size N programmed per filter")
	maxK := flag.Int("maxk", 8, "largest hash-function count to explore")
	flag.Parse()

	dev := fpga.EP2S180()
	t := report.NewTable(
		fmt.Sprintf("Design space at N=%d n-grams per profile (EP2S180, 8 n-grams/clock)", *load),
		"m (Kbit)", "k", "FP/1000", "Kbit/lang", "langs", "langs+sub2", "ideal", "module MHz",
	)
	for _, mKbit := range []int{4, 8, 16, 32} {
		mBits := uint32(mKbit) * 1024
		for k := 2; k <= *maxK; k++ {
			fp := bloom.FalsePositiveRate(*load, mBits, k)
			langs := fpga.MaxLanguages(k, mBits, 4, dev)
			// Subsampling every other n-gram halves the copies needed
			// (§5.2: "This doubles the number of supported languages").
			langsSub := fpga.MaxLanguages(k, mBits, 2, dev)
			ideal := fpga.MaxLanguagesIdeal(k, mBits, 4, dev)
			mod, err := fpga.EstimateModule(fpga.Table2Config(k, mBits), dev)
			if err != nil {
				log.Fatal(err)
			}
			t.AddRow(
				fmt.Sprint(mKbit), fmt.Sprint(k),
				fmt.Sprintf("%.1f", 1000*fp),
				fmt.Sprint(k*mKbit),
				fmt.Sprint(langs),
				fmt.Sprint(langsSub),
				fmt.Sprint(ideal),
				fmt.Sprintf("%.0f", mod.FreqMHz),
			)
		}
	}
	fmt.Println(t.String())
	fmt.Println("paper's picks: k=4 m=16Kbit (conservative, 12 languages ideal)")
	fmt.Println("               k=6 m=4Kbit  (space-efficient, 30 languages, Table 3)")
}
