// Quickstart: train language profiles on a synthetic corpus and detect
// a few snippets through the paper's pipeline (alphabet conversion,
// 4-gram extraction, Parallel Bloom Filter match counting) behind the
// unified Detector API: confidence scores, winner margins, ranked
// candidates, and explicit unknown outcomes.
package main

import (
	"fmt"
	"log"

	"bloomlang"
	"bloomlang/internal/bloom"
)

func main() {
	log.SetFlags(0)

	// 1. A small ten-language corpus (the paper's languages).
	corp, err := bloomlang.GenerateCorpus(bloomlang.CorpusConfig{
		DocsPerLanguage: 80,
		WordsPerDoc:     300,
		TrainFraction:   0.2,
		Seed:            42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Train top-t 4-gram profiles (§4: n=4, t=5000).
	profiles, err := bloomlang.Train(bloomlang.DefaultConfig(), corp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("trained profiles:")
	for _, p := range profiles.Profiles {
		fmt.Printf("  %-3s %-12s %4d n-grams\n", p.Language, bloomlang.LanguageName(p.Language), p.Size())
	}

	// 3. Build the detector: Bloom-filter membership (k=4 H3 hashes into
	// four independent 16 Kbit vectors per language), with documents
	// shorter than 8 n-grams or decided by less than a 1% margin
	// answered as unknown instead of guessed.
	det, err := bloomlang.NewDetector(profiles,
		bloomlang.WithBackend(bloomlang.BackendBloom),
		bloomlang.WithMinNGrams(8),
		bloomlang.WithMinMargin(0.01))
	if err != nil {
		log.Fatal(err)
	}
	cfg := det.Config()
	fmt.Printf("\ndetector: k=%d, m=%d Kbit, expected false positives %.1f/1000\n\n",
		cfg.K, cfg.MBits/1024, 1000*bloom.ExpectedFalsePositiveRate(cfg))

	// 4. Detect snippets. (ISO-8859-1 bytes; plain ASCII works too.)
	snippets := []struct{ label, text string }{
		{"es?", "el consejo adopta las medidas necesarias para la aplicacion del presente reglamento de la comision europea sobre el mercado interior"},
		{"fi?", "komissio antaa asetuksen soveltamista koskevat tarpeelliset säännökset jäsenvaltioiden markkinat ja tuotteet huomioon ottaen"},
		{"en?", "the council shall adopt the measures necessary for the application of this regulation concerning the internal market"},
		{"sv?", "kommissionen skall anta de bestämmelser som är nödvändiga för tillämpningen av denna förordning om den inre marknaden"},
		{"??", "zq"}, // too short to call: explicit unknown, not a guess
	}
	for _, s := range snippets {
		m := det.Detect([]byte(s.text))
		if m.Unknown {
			fmt.Printf("%-4s -> unknown (%d n-grams)\n", s.label, m.NGrams)
			continue
		}
		fmt.Printf("%-4s -> %-3s (%s)  score %.2f, margin %.2f over %d n-grams\n",
			s.label, m.Lang, bloomlang.LanguageName(m.Lang), m.Score, m.Margin, m.NGrams)
	}

	// 5. Ranked candidates for one snippet: the runner-up is usually the
	// sibling language (§5.2's es/pt, da/sv confusion structure).
	fmt.Println("\ntop-3 for the Spanish snippet:")
	for _, r := range det.Rank([]byte(snippets[0].text), 3) {
		fmt.Printf("  %-3s %-12s count %3d, score %.2f\n",
			r.Lang, bloomlang.LanguageName(r.Lang), r.Count, r.Score)
	}

	// 6. Score the whole test split with the batch path.
	docs := corp.TestDocuments("")
	matches := det.DetectBatch(bloomlang.DocumentTexts(docs))
	correct, unknown := 0, 0
	for i, m := range matches {
		switch {
		case m.Unknown:
			unknown++
		case m.Lang == docs[i].Language:
			correct++
		}
	}
	if decided := len(docs) - unknown; decided > 0 {
		fmt.Printf("\ntest-set: %d/%d correct, %d unknown (%.2f%% accuracy on decided docs)\n",
			correct, len(docs), unknown, 100*float64(correct)/float64(decided))
	} else {
		fmt.Printf("\ntest-set: every document answered unknown at these thresholds\n")
	}
}
