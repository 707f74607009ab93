package fpga_test

import (
	"fmt"
	"log"

	"bloomlang/internal/fpga"
)

// MaxLanguages reproduces the §5.2 capacity arithmetic: the
// space-efficient configuration (k=6, one 4 Kbit RAM per vector)
// supports thirty languages on the EP2S180 at 8 n-grams/clock.
func ExampleMaxLanguages() {
	n := fpga.MaxLanguages(6, 4*1024, 4, fpga.EP2S180())
	fmt.Println(n, "languages")
	// Output: 30 languages
}

// EstimateSystem reproduces a Table 3 row: the ten-language
// conservative build.
func ExampleEstimateSystem() {
	rep, err := fpga.EstimateSystem(fpga.ModuleConfig{
		K: 4, MBits: 16 * 1024, Languages: 10, Copies: 4,
	}, fpga.EP2S180())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d M4Ks at %.0f MHz, fits: %v\n", rep.M4Ks, rep.FreqMHz, rep.Fits)
	// Output: 680 M4Ks at 194 MHz, fits: true
}
