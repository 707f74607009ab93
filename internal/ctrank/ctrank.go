// Package ctrank implements the classic n-gram rank-order text
// categorizer of Cavnar & Trenkle, "N-Gram-Based Text Categorization"
// (SDAIR-94) — the algorithm behind Mguesser, the optimized software
// baseline the paper measures at 5.5 MB/sec on a 2.4 GHz Opteron
// (§5.5, Table 4).
//
// Unlike the Bloom-filter classifier, which tests fixed-length n-grams
// for set membership, Cavnar–Trenkle builds a rank-ordered profile of
// the most frequent n-grams of lengths 1..MaxN (padded per word) and
// classifies by the "out-of-place" distance between the document's
// profile and each language profile. It does strictly more work per
// input byte — multi-order extraction, per-document ranking, rank
// comparisons — which is why it sits orders of magnitude below the
// hardware design in Table 4.
package ctrank

import (
	"fmt"
	"sort"
	"time"

	"bloomlang/internal/corpus"
)

// Config holds the categorizer parameters.
type Config struct {
	// MaxN is the longest n-gram collected; Cavnar–Trenkle use 1..5.
	MaxN int
	// ProfileSize is the number of top-ranked n-grams kept per profile;
	// the original paper found 400 sufficient ("top 300 or so" for
	// language identification).
	ProfileSize int
}

// DefaultConfig returns the original paper's parameters.
func DefaultConfig() Config {
	return Config{MaxN: 5, ProfileSize: 400}
}

func (c *Config) applyDefaults() {
	if c.MaxN <= 0 {
		c.MaxN = 5
	}
	if c.ProfileSize <= 0 {
		c.ProfileSize = 400
	}
}

// Classifier holds the trained language profiles.
type Classifier struct {
	cfg      Config
	langs    []string
	profiles []map[string]int // n-gram -> rank (0 = most frequent)
}

// Train builds rank profiles for every language from training texts.
func Train(cfg Config, texts map[string][][]byte) (*Classifier, error) {
	cfg.applyDefaults()
	if len(texts) == 0 {
		return nil, fmt.Errorf("ctrank: no training languages")
	}
	langs := make([]string, 0, len(texts))
	for lang := range texts {
		langs = append(langs, lang)
	}
	sort.Strings(langs)
	c := &Classifier{cfg: cfg}
	for _, lang := range langs {
		if len(texts[lang]) == 0 {
			return nil, fmt.Errorf("ctrank: language %q has no training documents", lang)
		}
		counts := make(map[string]int)
		for _, text := range texts[lang] {
			accumulate(counts, text, cfg.MaxN)
		}
		c.langs = append(c.langs, lang)
		c.profiles = append(c.profiles, rank(counts, cfg.ProfileSize))
	}
	return c, nil
}

// TrainCorpus trains from a generated corpus's training split.
func TrainCorpus(cfg Config, corp *corpus.Corpus) (*Classifier, error) {
	return Train(cfg, corp.TrainTextsByLanguage())
}

// Languages returns the trained language codes in distance-vector order.
func (c *Classifier) Languages() []string { return c.langs }

// accumulate tokenizes text into letter runs, pads each token with a
// leading and trailing blank (Cavnar–Trenkle's word marker), and counts
// all n-grams of lengths 1..maxN.
func accumulate(counts map[string]int, text []byte, maxN int) {
	// Reused padded-token buffer.
	tok := make([]byte, 0, 64)
	flush := func() {
		if len(tok) == 0 {
			return
		}
		padded := append(tok, '_')
		for n := 1; n <= maxN; n++ {
			for i := 0; i+n <= len(padded); i++ {
				counts[string(padded[i:i+n])]++
			}
		}
		tok = tok[:0]
	}
	for _, b := range text {
		l := letter(b)
		if l == 0 {
			flush()
			continue
		}
		if len(tok) == 0 {
			tok = append(tok, '_')
		}
		tok = append(tok, l)
	}
	flush()
}

// letter folds an ISO-8859-1 byte to a lower-case letter, or 0 for
// non-letters. Mguesser operates on 8-bit text the same way.
func letter(b byte) byte {
	switch {
	case b >= 'a' && b <= 'z':
		return b
	case b >= 'A' && b <= 'Z':
		return b - 'A' + 'a'
	case b >= 0xC0 && b <= 0xDE && b != 0xD7:
		return b + 0x20 // accented upper -> accented lower
	case b >= 0xDF && b != 0xF7:
		return b
	}
	return 0
}

// rank converts a count map into a rank map of the top n entries, ties
// broken lexicographically for determinism.
func rank(counts map[string]int, n int) map[string]int {
	type kv struct {
		g string
		c int
	}
	entries := make([]kv, 0, len(counts))
	for g, c := range counts {
		entries = append(entries, kv{g, c})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].c != entries[j].c {
			return entries[i].c > entries[j].c
		}
		return entries[i].g < entries[j].g
	})
	if len(entries) > n {
		entries = entries[:n]
	}
	ranks := make(map[string]int, len(entries))
	for i, e := range entries {
		ranks[e.g] = i
	}
	return ranks
}

// Result is a classification outcome with per-language out-of-place
// distances (lower is better), index-aligned with Languages().
type Result struct {
	Distances []int
	Best      int
}

// BestLanguage returns the winning language code, or "" if the document
// produced no n-grams.
func (r Result) BestLanguage(langs []string) string {
	if r.Best < 0 || r.Best >= len(langs) {
		return ""
	}
	return langs[r.Best]
}

// Classify computes the document's rank profile and returns the
// out-of-place distance to every language profile.
func (c *Classifier) Classify(doc []byte) Result {
	counts := make(map[string]int, 1024)
	accumulate(counts, doc, c.cfg.MaxN)
	docRanks := rank(counts, c.cfg.ProfileSize)
	r := Result{Distances: make([]int, len(c.profiles)), Best: -1}
	if len(docRanks) == 0 {
		for i := range r.Distances {
			r.Distances[i] = -1
		}
		return r
	}
	maxPenalty := c.cfg.ProfileSize
	for i, prof := range c.profiles {
		d := 0
		for g, dr := range docRanks {
			if pr, ok := prof[g]; ok {
				if dr > pr {
					d += dr - pr
				} else {
					d += pr - dr
				}
			} else {
				d += maxPenalty
			}
		}
		r.Distances[i] = d
		if r.Best == -1 || d < r.Distances[r.Best] {
			r.Best = i
		}
	}
	return r
}

// ThroughputReport is a measured classification run, for Table 4.
type ThroughputReport struct {
	Bytes   int64
	Elapsed time.Duration
	Docs    int
	Correct int
}

// MBPerSec returns throughput in MB/sec (2^20 bytes).
func (r ThroughputReport) MBPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / (1 << 20) / r.Elapsed.Seconds()
}

// Accuracy returns the fraction of documents classified correctly.
func (r ThroughputReport) Accuracy() float64 {
	if r.Docs == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Docs)
}

// Measure classifies documents sequentially — Mguesser is a
// single-threaded program, and Table 4 measured it as such — and
// reports wall-clock throughput and accuracy.
func (c *Classifier) Measure(docs []corpus.Document) ThroughputReport {
	var rep ThroughputReport
	for _, d := range docs {
		rep.Bytes += int64(len(d.Text))
	}
	start := time.Now()
	for _, d := range docs {
		r := c.Classify(d.Text)
		if r.BestLanguage(c.langs) == d.Language {
			rep.Correct++
		}
	}
	rep.Elapsed = time.Since(start)
	rep.Docs = len(docs)
	return rep
}
