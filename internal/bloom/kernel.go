package bloom

import (
	"bloomlang/internal/core"
	"bloomlang/internal/ngram"
)

// Backend is the name a detector counting through the paper's filters
// reports; core.WithKernel(Backend, NewKernel) selects them.
const Backend core.Backend = "parallel-bloom"

// kernel is the paper's membership kernel: one Parallel Bloom Filter
// per language, queried in the languages×grams loop.
type kernel struct{ filters []*Parallel }

// AccumulateInto adds each language's match count over gs into counts.
func (k *kernel) AccumulateInto(counts []int, gs []uint32) {
	for i, f := range k.filters {
		n := 0
		for _, g := range gs {
			if f.Test(g) {
				n++
			}
		}
		counts[i] += n
	}
}

// NewKernel builds the paper's kernel over ParallelFilters(ps), for
// core.WithKernel.
func NewKernel(ps *core.ProfileSet) (core.Kernel, error) {
	fs, err := ParallelFilters(ps)
	if err != nil {
		return nil, err
	}
	return &kernel{fs}, nil
}

// ParallelFilters programs the paper's Parallel Bloom Filter for every
// language of the set, in profile order: k H3 hashes into k
// independent m-bit vectors per language (§3.1). Each language's seed
// is offset from the configured one, so its filter is independent, as
// in hardware where each replica has its own H3 matrices. NewKernel
// scores through these filters, and the XD1000 and VHDL models build
// theirs here, so simulated hardware and software agree bit for bit.
func ParallelFilters(ps *core.ProfileSet) ([]*Parallel, error) {
	cfg := ps.Config.WithDefaults()
	fs := make([]*Parallel, len(ps.Profiles))
	for i, p := range ps.Profiles {
		f, err := languageFilter(cfg, i, ngram.Bits(cfg.N))
		if err != nil {
			return nil, err
		}
		f.ProgramAll(p.Grams)
		fs[i] = f
	}
	return fs, nil
}

// languageFilter is the empty Parallel Bloom Filter of language i under
// cfg, over inputBits-wide n-grams: k vectors of m bits, with the seed
// offset by i so every language draws its own H3 matrices. The narrow
// ParallelFilters and the wide TrainWide both build through it.
func languageFilter(cfg core.Config, i int, inputBits uint) (*Parallel, error) {
	return NewParallel(cfg.K, inputBits, cfg.MBits, cfg.Seed+int64(i)*1000003)
}

// ExpectedFalsePositiveRate returns the §3.1 model value for the
// filters cfg configures, at profile load N = TopT.
func ExpectedFalsePositiveRate(cfg core.Config) float64 {
	cfg = cfg.WithDefaults()
	return FalsePositiveRate(cfg.TopT, cfg.MBits, cfg.K)
}
