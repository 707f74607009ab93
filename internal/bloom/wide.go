package bloom

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/core"
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
// "" when no language matched any n-gram.
func (r Result) BestLanguage(langs []string) string {
	if len(r.Counts) == 0 {
		return ""
	}
	best := slices.Max(r.Counts)
	if best == 0 {
		return ""
	}
	return langs[slices.Index(r.Counts, best)]
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
// validated as the trainer validates them (Config.Validate); N is
// capped at 4 (a 4-gram of 16-bit characters fills the 64-bit hash
// input), and Subsample must be 1, because the wide classifier tests
// every n-gram.
func TrainWide(cfg core.Config, texts map[string][]string) (*WideClassifier, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.N > maxWideN {
		return nil, fmt.Errorf("bloom: wide n=%d exceeds %d", cfg.N, maxWideN)
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
		grams, err := wideProfile(texts[lang], cfg.N, cfg.TopT)
		if err != nil {
			return nil, err
		}
		f, err := languageFilter(cfg, i, wideBitsFor(cfg.N))
		if err != nil {
			return nil, err
		}
		for _, g := range grams {
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
	gs, err := extractWide(text, c.cfg.N)
	if err != nil {
		panic(err) // config validated at TrainWide
	}
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

// Wide n-grams: n 16-bit characters packed into a uint64 (so n <= 4),
// counted with a map instead of a flat table — the very point of the
// extension is that a direct lookup table over a 16-bit alphabet would
// be astronomically large while the Bloom filter only needs a wider
// hash input. The packed word is that input: Program64 and Test64 hash
// it with h3.Func's Hash64.

// maxWideN is the largest wide n-gram length that packs into 64 bits.
const maxWideN = 64 / alphabet.WideBits // 4

// wideBitsFor returns the packed width of a wide n-gram of length n.
func wideBitsFor(n int) uint { return uint(n) * alphabet.WideBits }

// wideExtractor slides a window of n 16-bit codes over a rune stream.
type wideExtractor struct {
	n      int
	mask   uint64
	window uint64
	filled int
}

// newWideExtractor returns an extractor for wide n-grams of length n.
func newWideExtractor(n int) (*wideExtractor, error) {
	if n < 1 || n > maxWideN {
		return nil, fmt.Errorf("bloom: wide length %d out of range [1,%d]", n, maxWideN)
	}
	return &wideExtractor{n: n, mask: ^uint64(0) >> (64 - wideBitsFor(n))}, nil
}

// reset clears the window.
func (e *wideExtractor) reset() {
	e.window = 0
	e.filled = 0
}

// feed shifts codes into the window, appending complete n-grams to dst.
func (e *wideExtractor) feed(dst []uint64, codes []alphabet.WideCode) []uint64 {
	for _, c := range codes {
		e.window = (e.window<<alphabet.WideBits | uint64(c)) & e.mask
		if e.filled < e.n-1 {
			e.filled++
			continue
		}
		dst = append(dst, e.window)
	}
	return dst
}

// extractWide translates UTF-8 text and returns its packed wide
// n-grams.
func extractWide(text string, n int) ([]uint64, error) {
	e, err := newWideExtractor(n)
	if err != nil {
		return nil, err
	}
	return e.feed(nil, alphabet.TranslateWide(text)), nil
}

// wideProfile returns a language's profile over wide n-grams: the t
// most frequent n-grams of its UTF-8 training texts, best first by
// count descending, then packed n-gram ascending.
func wideProfile(texts []string, n, t int) ([]uint64, error) {
	counts := make(map[uint64]int)
	for _, text := range texts {
		gs, err := extractWide(text, n)
		if err != nil {
			return nil, err
		}
		for _, g := range gs {
			counts[g]++
		}
	}
	type entry struct {
		gram  uint64
		count int
	}
	es := make([]entry, 0, len(counts))
	for g, c := range counts {
		es = append(es, entry{g, c})
	}
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Or(cmp.Compare(b.count, a.count), cmp.Compare(a.gram, b.gram))
	})
	grams := make([]uint64, max(0, min(t, len(es))))
	for i := range grams {
		grams[i] = es[i].gram
	}
	return grams, nil
}
