// Package hail models the paper's hardware comparator: HAIL, the
// Hardware-Accelerated Algorithm for Language Identification of Kastner,
// Covington, Levine & Lockwood (FPL 2005), implemented on a Xilinx
// XCV2000E-8 FPGA with off-chip SRAM lookup tables (§2, §5.5, Table 4).
//
// HAIL differs from the paper's Bloom-filter design in the membership
// structure: n-gram profiles live in off-chip SRAM as a direct lookup
// table mapping each n-gram to the single language it is most
// representative of, which is how one lookup per n-gram scales to 255
// languages. The number of off-chip SRAM banks bounds the lookups per
// clock, which is the scalability limitation the paper's on-chip design
// removes (§2: "the amount of parallelism that can be exploited is
// limited by the number of off-chip SRAMs available").
//
// Functionally the classifier is exact (a hit means the n-gram really
// is in that language's profile — no false positives); architecturally
// HAIL subsamples the input stream (every other n-gram) to match SRAM
// bandwidth. Throughput is modelled from the published figure:
// 324 MB/sec on ten languages (Table 4).
package hail

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ht"
	"bloomlang/internal/ngram"
)

// Config describes the HAIL hardware model.
type Config struct {
	// N is the n-gram length (HAIL also used 4-character n-grams).
	N int
	// FreqMHz is the XCV2000E clock.
	FreqMHz float64
	// SRAMLookupsPerClock is the number of parallel off-chip SRAM reads
	// per cycle (one per bank port).
	SRAMLookupsPerClock int
	// Subsample tests every s-th n-gram; HAIL subsamples 1-in-2 so the
	// input byte rate is Subsample × lookups per clock.
	Subsample int
	// MaxLanguages is the language capacity; one byte of language ID
	// per table entry gives 255 (§2, §5.5).
	MaxLanguages int
}

// DefaultConfig returns the published HAIL operating point: 81 MHz with
// two SRAM lookups per clock and 1-in-2 subsampling, for an input rate
// of 4 bytes/clock = 324 MB/sec — Table 4's figure.
func DefaultConfig() Config {
	return Config{
		N:                   4,
		FreqMHz:             81,
		SRAMLookupsPerClock: 2,
		Subsample:           2,
		MaxLanguages:        255,
	}
}

func (c *Config) applyDefaults() {
	d := DefaultConfig()
	if c.N == 0 {
		c.N = d.N
	}
	if c.FreqMHz == 0 {
		c.FreqMHz = d.FreqMHz
	}
	if c.SRAMLookupsPerClock == 0 {
		c.SRAMLookupsPerClock = d.SRAMLookupsPerClock
	}
	if c.Subsample == 0 {
		c.Subsample = d.Subsample
	}
	if c.MaxLanguages == 0 {
		c.MaxLanguages = d.MaxLanguages
	}
}

// BytesPerClock returns the input consumption rate: each clock the
// banks test SRAMLookupsPerClock n-grams drawn every Subsample
// positions, covering SRAMLookupsPerClock × Subsample input bytes.
func (c Config) BytesPerClock() int {
	return c.SRAMLookupsPerClock * c.Subsample
}

// ThroughputMBps returns the modelled classification rate in MB/sec.
func (c Config) ThroughputMBps() float64 {
	return c.FreqMHz * 1e6 * float64(c.BytesPerClock()) / (1 << 20)
}

// Classifier is the functional HAIL model: a direct lookup table over
// the packed n-gram space whose entries name the owning language.
type Classifier struct {
	cfg   Config
	langs []string
	// table maps packed n-gram -> language index + 1 (0 = no language).
	table []uint8
}

// Build constructs the lookup table from language profiles. When an
// n-gram appears in several profiles it is assigned to the language
// where it ranks highest (profiles order n-grams by descending training
// frequency), mirroring HAIL's one-language-per-entry table.
func Build(cfg Config, profiles []*ngram.Profile) (*Classifier, error) {
	cfg.applyDefaults()
	if len(profiles) == 0 {
		return nil, fmt.Errorf("hail: no profiles")
	}
	if len(profiles) > cfg.MaxLanguages {
		return nil, fmt.Errorf("hail: %d languages exceed table capacity %d", len(profiles), cfg.MaxLanguages)
	}
	// Languages in label order, so counter indices are stable across
	// software and simulated hardware.
	sorted := slices.SortedStableFunc(slices.Values(profiles), func(a, b *ngram.Profile) int {
		return strings.Compare(a.Language, b.Language)
	})
	c := &Classifier{
		cfg:   cfg,
		table: make([]uint8, 1<<ngram.Bits(cfg.N)),
	}
	// bestRank tracks the winning rank per occupied entry.
	bestRank := make(map[uint32]int)
	for li, p := range sorted {
		if p.N != cfg.N {
			return nil, fmt.Errorf("hail: profile %q has n=%d, config has n=%d", p.Language, p.N, cfg.N)
		}
		c.langs = append(c.langs, p.Language)
		for rank, g := range p.Grams {
			if prev, ok := bestRank[g]; ok && prev <= rank {
				continue
			}
			bestRank[g] = rank
			c.table[g] = uint8(li) + 1
		}
	}
	return c, nil
}

// Languages returns the table's language order.
func (c *Classifier) Languages() []string { return c.langs }

// Config returns the model configuration.
func (c *Classifier) Config() Config { return c.cfg }

// Result is a HAIL classification outcome.
type Result struct {
	// Counts holds per-language match counts in Languages() order.
	Counts []int
	// NGrams is the number of n-grams looked up (after subsampling).
	NGrams int
	// Best is the winning language index, or -1.
	Best int
}

// BestLanguage returns the winning language code, or "".
func (r Result) BestLanguage(langs []string) string {
	if r.Best < 0 || r.Best >= len(langs) {
		return ""
	}
	return langs[r.Best]
}

// Classify runs the HAIL pipeline on one document: alphabet conversion,
// subsampled n-gram extraction, one table lookup per n-gram.
func (c *Classifier) Classify(doc []byte) Result {
	e, err := ngram.NewExtractor(c.cfg.N)
	if err != nil {
		panic(err) // config validated at Build
	}
	if c.cfg.Subsample > 1 {
		if err := e.SetSubsample(c.cfg.Subsample); err != nil {
			panic(err)
		}
	}
	gs := e.Feed(nil, alphabet.TranslateAll(doc))
	r := Result{Counts: make([]int, len(c.langs)), NGrams: len(gs), Best: -1}
	for _, g := range gs {
		if li := c.table[g]; li != 0 {
			r.Counts[li-1]++
		}
	}
	for i, n := range r.Counts {
		if r.Best == -1 || n > r.Counts[r.Best] {
			r.Best = i
		}
	}
	if r.NGrams == 0 {
		r.Best = -1
	}
	return r
}

// SimulatedReport is a modelled streaming run over a document set.
type SimulatedReport struct {
	// Bytes is the total input size.
	Bytes int64
	// SimTime is the modelled hardware time to stream the set.
	SimTime ht.Time
	// WallTime is the real time the functional simulation took (for
	// diagnostics only; the architecture numbers come from SimTime).
	WallTime time.Duration
	// Docs is the number of documents.
	Docs int
	// Correct counts documents whose simulated classification matched
	// the label.
	Correct int
}

// MBPerSec returns the modelled throughput in MB/sec.
func (r SimulatedReport) MBPerSec() float64 {
	s := r.SimTime.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Bytes) / (1 << 20) / s
}

// Accuracy returns the fraction classified correctly.
func (r SimulatedReport) Accuracy() float64 {
	if r.Docs == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Docs)
}

// Stream classifies a labelled document set and models the hardware
// time: the XCV2000E consumes BytesPerClock input bytes per cycle, plus
// a small per-document pipeline drain.
func (c *Classifier) Stream(docs []corpus.Document) SimulatedReport {
	rep := SimulatedReport{Docs: len(docs)}
	start := time.Now()
	cycleTime := ht.Time(float64(ht.Second) / (c.cfg.FreqMHz * 1e6))
	perDocDrain := 16 * cycleTime
	var sim ht.Time
	for _, d := range docs {
		rep.Bytes += int64(len(d.Text))
		cycles := (int64(len(d.Text)) + int64(c.cfg.BytesPerClock()) - 1) / int64(c.cfg.BytesPerClock())
		sim += ht.Time(cycles)*cycleTime + perDocDrain
		r := c.Classify(d.Text)
		if r.BestLanguage(c.langs) == d.Language {
			rep.Correct++
		}
	}
	rep.SimTime = sim
	rep.WallTime = time.Since(start)
	return rep
}
