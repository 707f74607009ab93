// Unicode: the paper's §3.3 extension — classification over a 16-bit
// alphabet. "The hash functions of the Bloom Filter would simply
// operate on a larger sized input n-gram, with the rest of the Bloom
// Filter remaining the same. This is in contrast to an approach that
// uses a direct memory lookup table ... which grows exponentially in
// the size of the alphabet."
package main

import (
	"fmt"
	"log"

	"bloomlang"
)

func main() {
	log.SetFlags(0)

	// Training snippets in scripts the 5-bit extended-ASCII pipeline
	// cannot represent (plus English for contrast).
	training := map[string][]string{
		"el": { // Greek
			"το συμβούλιο θεσπίζει τα αναγκαία μέτρα για την εφαρμογή του παρόντος κανονισμού",
			"η επιτροπή υποβάλλει έκθεση στο ευρωπαϊκό κοινοβούλιο και στο συμβούλιο",
			"τα κράτη μέλη θέτουν σε ισχύ τις αναγκαίες νομοθετικές και κανονιστικές διατάξεις",
		},
		"ru": { // Russian
			"совет принимает необходимые меры для применения настоящего регламента",
			"комиссия представляет доклад европейскому парламенту и совету",
			"государства члены вводят в действие необходимые законодательные положения",
		},
		"uk": { // Ukrainian
			"рада вживає необхідних заходів для застосування цього регламенту",
			"комісія подає доповідь європейському парламенту та раді",
			"держави члени вводять в дію необхідні законодавчі положення",
		},
		"bg": { // Bulgarian
			"съветът приема необходимите мерки за прилагането на настоящия регламент",
			"комисията представя доклад на европейския парламент и на съвета",
			"държавите членки въвеждат в сила необходимите законови разпоредби",
		},
		"en": {
			"the council shall adopt the measures necessary for the application of this regulation",
			"the commission shall submit a report to the european parliament and to the council",
			"member states shall bring into force the necessary laws and regulations",
		},
	}

	cfg := bloomlang.DefaultConfig()
	cfg.N = 3       // 3-grams of 16-bit characters = 48-bit hash inputs
	cfg.TopT = 2000 // small training set; keep profiles proportionate
	clf, err := bloomlang.TrainWide(cfg, training)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("wide classifier: %d languages, %d-bit hash inputs, k=%d, m=%d Kbit\n",
		len(clf.Languages()), 16*cfg.N, cfg.K, cfg.MBits/1024)
	fmt.Printf("(a direct lookup table over 3-grams of a 16-bit alphabet would need 2^48 entries —\n")
	fmt.Printf(" the Bloom filter still uses %d Kbit per language)\n\n", cfg.K*int(cfg.MBits)/1024)

	tests := []struct{ name, text string }{
		{"Greek", "το ευρωπαϊκό κοινοβούλιο θεσπίζει μέτρα για την εφαρμογή"},
		{"Russian", "европейский парламент принимает меры для применения"},
		{"Ukrainian", "європейський парламент вживає заходів для застосування"},
		{"Bulgarian", "европейският парламент приема мерки за прилагането"},
		{"English", "the european parliament shall adopt measures for the application"},
	}
	for _, tc := range tests {
		r := clf.Classify(tc.text)
		lang := r.BestLanguage(clf.Languages())
		fmt.Printf("%-10s -> %-3s  margin %d over %d n-grams\n", tc.name, lang, r.Margin(), r.NGrams)
	}

	fmt.Println("\nnote how the three Cyrillic languages separate: the 16-bit alphabet")
	fmt.Println("preserves letters like і/ї/є (Ukrainian) and ъ (Bulgarian) that an")
	fmt.Println("8-bit pipeline would have to fold away")
}
