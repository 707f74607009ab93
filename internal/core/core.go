// Package core implements the paper's primary contribution in software:
// multi-language classification by n-gram match counting against
// per-language membership structures (§2, HAIL steps 1–3, with the
// paper's Parallel Bloom Filters as the membership structure).
//
// The flow is exactly the paper's:
//
//  1. Preprocessing generates an n-gram profile per language from a
//     representative sample of documents (TrainFromTexts).
//  2. A document's n-grams are tested for membership in every language
//     profile; each match increments that language's counter.
//  3. The language with the highest match count is the classification.
//
// Detector is the one detection entry point: Detect, DetectCounts,
// DetectBatch, DetectBatchCounts, Rank and the segmentation paths all
// count through one Stream type, borrowed from the detector's pool.
// The Stream turns bytes into n-grams, and each backend is one Kernel
// with one method, AccumulateInto, which scores every language for
// each n-gram in one call (§3.2); where the direct-lookup table fits
// one plane, the Stream runs its fused loop from bytes to counts
// instead. NewStream and NewSpanStream hand out the same Stream for
// incremental input, with segmentation off or on; BorrowStream and
// ReturnStream lend pooled ones to servers. Classifier is the raw-count layer underneath:
// the reference the paper-model tests compare against. The package
// takes documents as bytes; corpus scoring lives in the root bloomlang
// package.
//
// The membership backends are a closed set of two. The default,
// direct-lookup, is exact: HAIL's direct table (§2) generalised to one
// language bitmask per packed n-gram, so one table load scores an
// n-gram against up to 16 languages. The Parallel Bloom Filter is the
// paper's design. The table cannot hold the key space of n >= 6, so
// ServingBackend picks the Parallel Bloom Filter there. The paper's
// hardware models (internal/xd1000, internal/rtl, internal/vhdl) do
// not link a Classifier: they build their own filters with
// ProfileSet.ParallelFilters, the function the parallel-bloom backend
// builds through, so hardware-simulated and software classifications
// agree bit-for-bit.
package core

import (
	"fmt"
	"sort"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/bloom"
	"bloomlang/internal/ngram"
)

// Config carries the classifier parameters studied in §5.2.
type Config struct {
	// N is the n-gram length; the paper uses 4 (§4).
	N int
	// TopT is the profile size t; the paper uses 5,000 (§4).
	TopT int
	// K is the number of H3 hash functions per Bloom filter.
	K int
	// MBits is the length m of each of the K bit-vectors, in bits.
	// Table 1 explores 16Kbit, 8Kbit and 4Kbit.
	MBits uint32
	// Seed drives H3 matrix generation; equal seeds give identical
	// classifiers.
	Seed int64
	// Subsample tests only every s-th document n-gram when s > 1
	// (HAIL-style input subsampling, §3.3).
	Subsample int
}

// DefaultConfig returns the paper's most conservative configuration:
// 4-grams, t=5000, k=4 hash functions, m=16 Kbit vectors.
func DefaultConfig() Config {
	return Config{
		N:         ngram.DefaultN,
		TopT:      ngram.DefaultProfileSize,
		K:         4,
		MBits:     16 * 1024,
		Seed:      1,
		Subsample: 1,
	}
}

func (c *Config) applyDefaults() {
	if c.N == 0 {
		c.N = ngram.DefaultN
	}
	if c.TopT == 0 {
		c.TopT = ngram.DefaultProfileSize
	}
	if c.K == 0 {
		c.K = 4
	}
	if c.MBits == 0 {
		c.MBits = 16 * 1024
	}
	if c.Subsample == 0 {
		c.Subsample = 1
	}
}

// WithDefaults returns the configuration with zero fields replaced by
// the package defaults — the effective configuration Train and New
// operate under, and the one a trained ProfileSet records.
func (c Config) WithDefaults() Config {
	c.applyDefaults()
	return c
}

// Validate reports configuration errors early.
func (c Config) Validate() error {
	cfg := c
	cfg.applyDefaults()
	if cfg.N < 1 || cfg.N > ngram.MaxN {
		return fmt.Errorf("core: n=%d out of range [1,%d]", cfg.N, ngram.MaxN)
	}
	if cfg.TopT < 1 {
		return fmt.Errorf("core: profile size %d must be positive", cfg.TopT)
	}
	if cfg.K < 1 {
		return fmt.Errorf("core: k=%d must be positive", cfg.K)
	}
	if cfg.MBits == 0 || cfg.MBits&(cfg.MBits-1) != 0 {
		return fmt.Errorf("core: m=%d bits is not a power of two", cfg.MBits)
	}
	if cfg.Subsample < 1 {
		return fmt.Errorf("core: subsample %d must be >= 1", cfg.Subsample)
	}
	return nil
}

// ExpectedFalsePositiveRate returns the §3.1 model value for this
// configuration at profile load N=TopT.
func (c Config) ExpectedFalsePositiveRate() float64 {
	cfg := c
	cfg.applyDefaults()
	return bloom.FalsePositiveRate(cfg.TopT, cfg.MBits, cfg.K)
}

// ProfileSet is a trained set of language profiles plus the
// configuration they were trained under.
type ProfileSet struct {
	Config   Config
	Profiles []*ngram.Profile // sorted by language code
}

// TrainFromTexts builds per-language profiles from raw training texts
// keyed by language code, counting every language over one shared
// n-gram vocabulary, as the streaming trainer does, and releasing the
// vocabulary before ranking, so the next mask plane built takes its
// flat index (ngram.NewTable). A language's texts
// may hold at most ngram.MaxTotal n-grams; the document that would
// pass that is refused, with an error naming the language.
func TrainFromTexts(cfg Config, texts map[string][][]byte) (*ProfileSet, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(texts) == 0 {
		return nil, fmt.Errorf("core: no training languages")
	}
	langs := make([]string, 0, len(texts))
	for lang := range texts {
		langs = append(langs, lang)
	}
	sort.Strings(langs)
	v, err := ngram.NewVocabulary(cfg.N)
	if err != nil {
		return nil, err
	}
	counters := make([]*ngram.Counter, len(langs))
	for i, lang := range langs {
		if len(texts[lang]) == 0 {
			return nil, fmt.Errorf("core: language %q has no training documents", lang)
		}
		counters[i] = v.NewCounter()
		for _, text := range texts[lang] {
			if err := counters[i].AddText(text); err != nil {
				return nil, fmt.Errorf("core: language %q: %w", lang, err)
			}
		}
	}
	v.Release()
	ps := &ProfileSet{Config: cfg, Profiles: make([]*ngram.Profile, len(langs))}
	var r ngram.Ranker
	for i, lang := range langs {
		ps.Profiles[i] = r.Profile(lang, counters[i], cfg.TopT)
	}
	return ps, nil
}

// Languages returns the trained language codes in classifier order.
func (ps *ProfileSet) Languages() []string {
	langs := make([]string, len(ps.Profiles))
	for i, p := range ps.Profiles {
		langs[i] = p.Language
	}
	return langs
}

// languageNames are the English names of the paper's ten languages.
var languageNames = map[string]string{
	"cs": "Czech", "da": "Danish", "en": "English", "es": "Spanish", "et": "Estonian",
	"fi": "Finnish", "fr": "French", "pt": "Portuguese", "sk": "Slovak", "sv": "Swedish",
}

// LanguageName returns the English name for a language code, or the
// code itself when it is not one of the paper's ten languages.
func LanguageName(code string) string {
	if name, ok := languageNames[code]; ok {
		return name
	}
	return code
}

// Backend selects the membership structure a Classifier uses, one of
// the two below; backend.go names them and builds their kernels.
type Backend int

const (
	// BackendDirect, the zero value and so the default everywhere a
	// backend is not named, uses an exact table holding one language
	// bitmask per packed n-gram (HAIL's approach, fused across
	// languages).
	BackendDirect Backend = iota
	// BackendBloom uses the paper's Parallel Bloom Filter.
	BackendBloom
)

// Classifier tests document n-grams against every language profile and
// reports match counts — the software realization of the multiple
// language classifier of §3.2.
type Classifier struct {
	cfg     Config
	backend Backend
	langs   []string
	kernel  Kernel
	// window is the prototype n-gram register, configured once at
	// construction. It is never fed directly: every document copies it
	// by value, getting its own sliding-window state without a per-call
	// allocation.
	window ngram.Window
}

// New builds a classifier over the profile set with the chosen backend.
func New(ps *ProfileSet, backend Backend) (*Classifier, error) {
	cfg := ps.Config
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ps.Profiles) == 0 {
		return nil, fmt.Errorf("core: empty profile set")
	}
	if backend < 0 || int(backend) >= len(backends) {
		return nil, fmt.Errorf("core: unknown backend %d", int(backend))
	}
	c := &Classifier{cfg: cfg, backend: backend, window: ngram.Window{N: cfg.N, Subsample: cfg.Subsample}}
	for _, p := range ps.Profiles {
		if p.N != cfg.N {
			return nil, fmt.Errorf("core: profile %q has n=%d, config has n=%d", p.Language, p.N, cfg.N)
		}
		c.langs = append(c.langs, p.Language)
	}
	var err error
	if c.kernel, err = backends[backend].build(cfg, ps); err != nil {
		return nil, err
	}
	return c, nil
}

// Languages returns the classifier's language order; Result.Counts uses
// the same order.
func (c *Classifier) Languages() []string { return c.langs }

// Config returns the classifier's effective configuration.
func (c *Classifier) Config() Config { return c.cfg }

// Backend returns the membership backend in use.
func (c *Classifier) Backend() Backend { return c.backend }

// Result is the outcome of classifying one document.
type Result struct {
	// Counts holds per-language match counts in Languages() order.
	Counts []int
	// NGrams is the number of n-grams tested.
	NGrams int
	// Best is the index of the winning language (highest count, ties
	// broken towards the lower index, i.e. lexicographically earlier
	// language). -1 when no n-grams were tested.
	Best int
	// Second is the index of the runner-up, or -1.
	Second int
}

// BestLanguage returns the winning language code, or "" for an empty
// document.
func (r Result) BestLanguage(langs []string) string {
	if r.Best < 0 || r.Best >= len(langs) {
		return ""
	}
	return langs[r.Best]
}

// Margin returns the winner's lead over the runner-up in match counts.
// §5.1 observes that this margin is normally much larger than the false
// positive noise, which is why Bloom false positives barely affect
// accuracy.
func (r Result) Margin() int {
	if r.Best < 0 || r.Second < 0 {
		return 0
	}
	return r.Counts[r.Best] - r.Counts[r.Second]
}

// Classify runs the full pipeline on one raw ISO-8859-1 document:
// alphabet translation, n-gram extraction, membership testing, match
// counting, and winner selection.
func (c *Classifier) Classify(doc []byte) Result {
	gs := c.ExtractGrams(nil, doc)
	return c.ClassifyGrams(gs)
}

// ExtractGrams translates and extracts the document's packed n-grams
// into dst (which may be nil), honouring the configured subsampling.
// It is the staged reference for the serving path, Stream's one pass
// from bytes to counts: translation to a code slice, then extraction
// through a value copy of the construction-time window.
func (c *Classifier) ExtractGrams(dst []uint32, doc []byte) []uint32 {
	w := c.window
	return w.Feed(dst, alphabet.TranslateAll(doc))
}

// ClassifyGrams counts matches for pre-extracted n-grams. This is the
// inner loop the hardware implements: every n-gram is tested against
// every language's filter and counters are incremented on match.
func (c *Classifier) ClassifyGrams(gs []uint32) Result {
	r := Result{Counts: make([]int, len(c.langs)), NGrams: len(gs), Best: -1, Second: -1}
	c.countInto(r.Counts, gs)
	r.selectWinners()
	return r
}

// countInto runs the match-counting inner loop into a caller-owned
// counts slice (len(Languages())), allocating nothing.
func (c *Classifier) countInto(counts []int, gs []uint32) {
	for i := range counts {
		counts[i] = 0
	}
	c.kernel.AccumulateInto(counts, gs)
}

func (r *Result) selectWinners() {
	if r.NGrams == 0 {
		return
	}
	r.Best, r.Second = winners(r.Counts)
}

// winners returns the indices of the highest and second-highest counts.
// Ties break towards the lower index (the lexicographically earlier
// language, since profiles are sorted by code). second is -1 when there
// is only one language.
func winners(counts []int) (best, second int) {
	best, second = -1, -1
	for i, n := range counts {
		switch {
		case best == -1 || n > counts[best]:
			second = best
			best = i
		case second == -1 || n > counts[second]:
			second = i
		}
	}
	return best, second
}
