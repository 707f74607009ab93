package bloomlang_test

import (
	"fmt"
	"log"

	"bloomlang"
)

// The basic pipeline: train profiles on a corpus, build a Detector,
// detect.
func Example() {
	corp, err := bloomlang.GenerateCorpus(bloomlang.CorpusConfig{
		DocsPerLanguage: 60,
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
	det, err := bloomlang.NewDetector(profiles)
	if err != nil {
		log.Fatal(err)
	}
	m := det.Detect([]byte("the council shall adopt the measures necessary for the application of this regulation"))
	fmt.Println(m.Lang)
	// Output: en
}

// Unknown thresholding: an empty document is never guessed, and a
// margin floor turns near-ties into explicit unknowns instead of
// silent lexicographic tie-breaks.
func ExampleDetector_Detect() {
	corp, err := bloomlang.GenerateCorpus(bloomlang.CorpusConfig{
		DocsPerLanguage: 60,
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
	det, err := bloomlang.NewDetector(profiles, bloomlang.WithMinNGrams(8))
	if err != nil {
		log.Fatal(err)
	}
	m := det.Detect([]byte("zq"))
	fmt.Println(m.Unknown, m.Lang == "")
	// Output: true true
}
