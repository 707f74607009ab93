package bloom

import (
	"fmt"
	"slices"
	"sort"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/core"
	"bloomlang/internal/ngram"
)

// WideClassifier implements the §3.3 Unicode extension: the same
// match-counting classifier over 16-bit characters. Its Parallel Bloom
// Filters are the narrow classifier's, built by the same per-language
// constructor, and only their hashes take the wider packed n-gram
// (Program64, Test64). A direct lookup table "grows exponentially in
// the size of the alphabet"; the Bloom filter's storage is unchanged.
type WideClassifier struct {
	cfg     core.Config
	langs   []string
	filters []*Parallel
}

// Result is one document's per-language match counts under the wide
// classifier.
type Result struct {
	// Counts holds per-language match counts in Languages() order.
	Counts []int
	// NGrams is the number of n-grams tested.
	NGrams int
}

// BestLanguage returns the language with the most matches, ties broken
// towards the lower index (the lexicographically earlier language), or
// "" when no n-grams were tested.
func (r Result) BestLanguage(langs []string) string {
	if r.NGrams == 0 || len(r.Counts) == 0 {
		return ""
	}
	return langs[slices.Index(r.Counts, slices.Max(r.Counts))]
}

// Margin returns the winner's lead over the runner-up in match counts,
// 0 for an empty document or a single language. §5.1 observes that
// this margin is normally much larger than the false positive noise,
// which is why Bloom false positives barely affect accuracy.
func (r Result) Margin() int {
	if r.NGrams == 0 || len(r.Counts) < 2 {
		return 0
	}
	s := slices.Sorted(slices.Values(r.Counts))
	return s[len(s)-1] - s[len(s)-2]
}

// TrainWide builds a wide classifier from UTF-8 training texts keyed by
// language. The Config fields have their usual meanings and are
// validated as core.TrainFromTexts validates them; N is capped at 4 (a
// 4-gram of 16-bit characters fills the 64-bit hash input), and
// Subsample must be 1, because the wide classifier tests every n-gram.
func TrainWide(cfg core.Config, texts map[string][]string) (*WideClassifier, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.N > ngram.MaxWideN {
		return nil, fmt.Errorf("bloom: wide n=%d exceeds %d", cfg.N, ngram.MaxWideN)
	}
	if cfg.Subsample > 1 {
		return nil, fmt.Errorf("bloom: wide classifier does not subsample (subsample %d)", cfg.Subsample)
	}
	if len(texts) == 0 {
		return nil, fmt.Errorf("bloom: no training languages")
	}
	langs := make([]string, 0, len(texts))
	for lang := range texts {
		langs = append(langs, lang)
	}
	sort.Strings(langs)
	c := &WideClassifier{cfg: cfg}
	for i, lang := range langs {
		if len(texts[lang]) == 0 {
			return nil, fmt.Errorf("bloom: language %q has no training documents", lang)
		}
		p, err := ngram.WideProfileFromTexts(lang, texts[lang], cfg.N, cfg.TopT)
		if err != nil {
			return nil, err
		}
		f, err := languageFilter(cfg, i, ngram.WideBitsFor(cfg.N))
		if err != nil {
			return nil, err
		}
		for _, g := range p.Grams {
			f.Program64(g)
		}
		c.langs = append(c.langs, lang)
		c.filters = append(c.filters, f)
	}
	return c, nil
}

// Languages returns the classifier's language order.
func (c *WideClassifier) Languages() []string { return c.langs }

// Config returns the effective configuration.
func (c *WideClassifier) Config() core.Config { return c.cfg }

// Classify runs the wide pipeline on UTF-8 text.
func (c *WideClassifier) Classify(text string) Result {
	e, err := ngram.NewWideExtractor(c.cfg.N)
	if err != nil {
		panic(err) // config validated at TrainWide
	}
	gs := e.Feed(nil, alphabet.TranslateWide(text))
	r := Result{Counts: make([]int, len(c.filters)), NGrams: len(gs)}
	for i, f := range c.filters {
		count := 0
		for _, g := range gs {
			if f.Test64(g) {
				count++
			}
		}
		r.Counts[i] = count
	}
	return r
}
