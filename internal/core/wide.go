package core

import (
	"fmt"
	"sort"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/bloom"
	"bloomlang/internal/ngram"
)

// WideClassifier implements the §3.3 Unicode extension: the same
// match-counting classifier over 16-bit characters. Its Parallel Bloom
// Filters are the narrow classifier's, built by the same per-language
// constructor, and only their hashes take the wider packed n-gram
// (Program64, Test64). A direct lookup table "grows exponentially in
// the size of the alphabet"; the Bloom filter's storage is unchanged.
type WideClassifier struct {
	cfg     Config
	langs   []string
	filters []*bloom.Parallel
}

// TrainWide builds a wide classifier from UTF-8 training texts keyed by
// language. The Config fields have their usual meanings and are
// validated as TrainFromTexts validates them; N is capped at 4 (a
// 4-gram of 16-bit characters fills the 64-bit hash input), and
// Subsample must be 1, because the wide classifier tests every n-gram.
func TrainWide(cfg Config, texts map[string][]string) (*WideClassifier, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.N > ngram.MaxWideN {
		return nil, fmt.Errorf("core: wide n=%d exceeds %d", cfg.N, ngram.MaxWideN)
	}
	if cfg.Subsample > 1 {
		return nil, fmt.Errorf("core: wide classifier does not subsample (subsample %d)", cfg.Subsample)
	}
	if len(texts) == 0 {
		return nil, fmt.Errorf("core: no training languages")
	}
	langs := make([]string, 0, len(texts))
	for lang := range texts {
		langs = append(langs, lang)
	}
	sort.Strings(langs)
	c := &WideClassifier{cfg: cfg}
	for i, lang := range langs {
		if len(texts[lang]) == 0 {
			return nil, fmt.Errorf("core: language %q has no training documents", lang)
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
func (c *WideClassifier) Config() Config { return c.cfg }

// Classify runs the wide pipeline on UTF-8 text.
func (c *WideClassifier) Classify(text string) Result {
	e, err := ngram.NewWideExtractor(c.cfg.N)
	if err != nil {
		panic(err) // config validated at TrainWide
	}
	gs := e.Feed(nil, alphabet.TranslateWide(text))
	r := Result{Counts: make([]int, len(c.filters)), NGrams: len(gs), Best: -1, Second: -1}
	for i, f := range c.filters {
		count := 0
		for _, g := range gs {
			if f.Test64(g) {
				count++
			}
		}
		r.Counts[i] = count
	}
	r.selectWinners()
	return r
}
