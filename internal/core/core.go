// Package core implements the paper's primary contribution in software:
// multi-language classification by n-gram match counting against
// per-language membership structures (§2, HAIL steps 1–3).
//
// The flow is exactly the paper's:
//
//  1. Preprocessing generates an n-gram profile per language from a
//     representative sample of documents (TrainFromTexts).
//  2. A document's n-grams are tested for membership in every language
//     profile; each match increments that language's counter.
//  3. The language with the highest match count is the classification.
//
// Detector is the one detector type: Detect, DetectCounts,
// DetectBatch, Rank and the segmentation paths all count through one
// Stream type, borrowed from the detector's pool. The Stream turns
// bytes into n-grams, and the membership structure is one Kernel with
// one method, AccumulateInto, which scores every language for each
// n-gram in one call (§3.2); where the direct-lookup table fits one
// plane, the Stream runs its fused loop from bytes to counts instead.
// NewStream and NewSpanStream hand out the same Stream for incremental
// input, with segmentation off or on; BorrowStream and ReturnStream lend
// pooled ones to servers. DetectCounts gives the raw per-language
// counts the paper-model tests compare against. The package takes
// documents as bytes; corpus scoring lives in the root bloomlang
// package.
//
// Core has one built-in kernel, direct-lookup, and it is exact at
// every n: HAIL's direct table (§2) generalised to one language bitmask
// per packed n-gram, so one table load scores an n-gram against up to
// 16 languages. Up to n = 5 the table is indexed by the packed n-gram
// itself; the 2^(5n) key space of n = 6 is too large for that, so
// there the same masks sit in a compact open-addressed table over only
// the profiles' n-grams. The paper's Parallel Bloom Filter lives in
// internal/bloom, which hands its kernel to a Detector through
// WithKernel and builds the filters the hardware models
// (internal/xd1000, internal/vhdl) program, so hardware-simulated and
// software classifications agree bit-for-bit.
package core

import (
	"fmt"
	"sort"

	"bloomlang/internal/ngram"
)

// Config carries the classifier parameters studied in §5.2.
type Config struct {
	// N is the n-gram length; the paper uses 4 (§4).
	N int
	// TopT is the profile size t; the paper uses 5,000 (§4).
	TopT int
	// K is the number of H3 hash functions per Bloom filter. K, MBits
	// and Seed configure the paper's filters in internal/bloom; core's
	// exact kernel does not read them, but every profile file records
	// them.
	K int
	// MBits is the length m of each of the K bit-vectors, in bits.
	// Table 1 explores 16Kbit, 8Kbit and 4Kbit.
	MBits uint32
	// Seed drives H3 matrix generation; equal seeds give identical
	// filters.
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
// the package defaults — the effective configuration TrainFromTexts and
// NewDetector operate under, and the one a trained ProfileSet records.
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

// Result is one n-gram batch's raw per-language counts, as the
// deprecated ClassifyGrams reports them.
type Result struct {
	// Counts holds per-language match counts in Languages() order.
	Counts []int
	// NGrams is the number of n-grams tested.
	NGrams int
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
