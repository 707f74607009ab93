package core

import (
	"fmt"
	"sort"
	"sync"

	"bloomlang/internal/bloom"
	"bloomlang/internal/ngram"
)

// Kernel is a backend's membership-counting kernel: it scores every
// language for each n-gram in one call — the software analogue of the
// hardware testing one n-gram against all language classifiers in the
// same clock (§3.2). Both methods add each language's match count into
// counts (len(Languages()), in profile order); neither may allocate,
// write to its n-gram or byte input, or keep its arguments past the
// call.
type Kernel interface {
	// AccumulateInto counts pre-extracted packed n-grams. It is the
	// gram-level reference path that ClassifyGrams runs.
	AccumulateInto(counts []int, gs []uint32)
	// Count is the serving path, one pass from bytes to counts: it
	// shifts the raw ISO-8859-1 bytes of p through the window w,
	// counts every n-gram they complete, and returns how many that
	// was. w carries the register from one call to the next, so a
	// document counted in any number of pieces gets the counts of one
	// call over all of it.
	Count(counts []int, w *Window, p []byte) (grams int)
}

// Window is the n-gram shift register a Kernel's Count carries across
// the pieces of one document: the packed recent codes, how full the
// register is, and the subsample phase.
type Window = ngram.Window

// gramBlock is the most n-grams CountGrams hands AccumulateInto at once.
const gramBlock = 256

// gramBlocks recycles CountGrams' extraction blocks. A block passed to
// AccumulateInto through an interface escapes, so it cannot live on
// CountGrams' stack; a pooled one keeps warm calls allocation-free.
var gramBlocks = sync.Pool{New: func() any { return new([gramBlock]uint32) }}

// CountGrams is Count for a kernel that scores packed n-grams: it
// extracts p's n-grams through w into a block of at most 256 and calls
// k.AccumulateInto once per block. A backend without a fused loop of
// its own implements Count with it in one line.
func CountGrams(k Kernel, counts []int, w *Window, p []byte) (grams int) {
	if len(p) == 0 {
		return 0
	}
	block := gramBlocks.Get().(*[gramBlock]uint32)
	for len(p) > 0 {
		n := min(len(p), gramBlock)
		gs := w.FeedBytes(block[:0], p[:n])
		k.AccumulateInto(counts, gs)
		grams += len(gs)
		p = p[n:]
	}
	gramBlocks.Put(block)
	return grams
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

// Count counts the n-grams of b block by block.
func (p *parallelBloom) Count(counts []int, w *Window, b []byte) int {
	return CountGrams(p, counts, w, b)
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
		f, err := bloom.NewParallel(cfg.K, ngram.Bits(cfg.N), cfg.MBits, cfg.Seed+int64(i)*1000003)
		if err != nil {
			return nil, err
		}
		f.ProgramAll(p.Grams)
		fs[i] = f
	}
	return fs, nil
}

// buildParallelBloom is the paper's design over ps.ParallelFilters.
func buildParallelBloom(_ Config, ps *ProfileSet) (Kernel, error) {
	fs, err := ps.ParallelFilters()
	if err != nil {
		return nil, err
	}
	return &parallelBloom{fs}, nil
}
