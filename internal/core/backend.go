package core

import (
	"fmt"
	"sort"

	"bloomlang/internal/bloom"
	"bloomlang/internal/ngram"
)

// Kernel is a backend's membership-counting kernel: AccumulateInto
// scores every language for each packed n-gram of gs in one call — the
// software analogue of the hardware testing one n-gram against all
// language classifiers in the same clock (§3.2) — and adds each
// language's match count into counts (len(Languages()), in profile
// order). It may not allocate, write to gs, or keep its arguments past
// the call. Stream is the one place bytes become n-grams: it feeds
// them to AccumulateInto in blocks, or runs the mask kernel's fused
// loop where that applies.
type Kernel interface {
	AccumulateInto(counts []int, gs []uint32)
}

// backends is the closed set of membership backends, indexed by
// their Backend constant: canonical name, parse alias and the function
// that builds the backend's Kernel over the whole profile set.
var backends = [...]struct {
	name, alias string
	build       func(cfg Config, ps *ProfileSet) (Kernel, error)
}{
	BackendDirect: {"direct-lookup", "direct", buildMaskKernel},
	BackendBloom:  {"parallel-bloom", "bloom", buildParallelBloom},
}

// ParseBackend resolves a backend by canonical name or alias. It is the
// inverse of Backend.String: ParseBackend(b.String()) == b for every
// backend.
func ParseBackend(name string) (Backend, error) {
	names := make([]string, len(backends))
	for b, e := range backends {
		if name == e.name || name == e.alias {
			return Backend(b), nil
		}
		names[b] = e.name
	}
	return 0, fmt.Errorf("core: unknown backend %q (have %v)", name, names)
}

// Backends returns every backend's canonical name, sorted.
func Backends() []string {
	names := make([]string, len(backends))
	for b, e := range backends {
		names[b] = e.name
	}
	sort.Strings(names)
	return names
}

// String names the backend for reports and round-trips through
// ParseBackend.
func (b Backend) String() string {
	if b < 0 || int(b) >= len(backends) {
		return fmt.Sprintf("backend(%d)", int(b))
	}
	return backends[b].name
}

// parallelBloom is the paper's kernel: one Parallel Bloom Filter per
// language, queried in the languages×grams loop.
type parallelBloom struct{ filters []*bloom.Parallel }

// AccumulateInto adds each language's match count over gs into counts.
func (p *parallelBloom) AccumulateInto(counts []int, gs []uint32) {
	for i, f := range p.filters {
		n := 0
		for _, g := range gs {
			if f.Test(g) {
				n++
			}
		}
		counts[i] += n
	}
}

// ParallelFilters programs the paper's Parallel Bloom Filter for every
// language of the set, in profile order: k H3 hashes into k
// independent m-bit vectors per language (§3.1). Each language's seed
// is offset from the configured one, so its filter is independent, as
// in hardware where each replica has its own H3 matrices. The
// parallel-bloom backend scores through these filters, and the XD1000,
// RTL and VHDL models build theirs here, so simulated hardware and
// software agree bit for bit.
func (ps *ProfileSet) ParallelFilters() ([]*bloom.Parallel, error) {
	cfg := ps.Config.WithDefaults()
	fs := make([]*bloom.Parallel, len(ps.Profiles))
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
func languageFilter(cfg Config, i int, inputBits uint) (*bloom.Parallel, error) {
	return bloom.NewParallel(cfg.K, inputBits, cfg.MBits, cfg.Seed+int64(i)*1000003)
}

// buildParallelBloom is the paper's design over ps.ParallelFilters.
func buildParallelBloom(_ Config, ps *ProfileSet) (Kernel, error) {
	fs, err := ps.ParallelFilters()
	if err != nil {
		return nil, err
	}
	return &parallelBloom{fs}, nil
}
