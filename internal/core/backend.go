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

// BackendBuilder constructs a backend's Kernel over the whole profile
// set at once, so fused backends can lay the per-language state out
// contiguously and per-language backends can derive each language's
// seed from its index.
type BackendBuilder func(cfg Config, ps *ProfileSet) (Kernel, error)

// backendEntry is one registered membership backend. The entry's slot
// in the registry table is its Backend value, so the registry is an
// open-ended extension of the original closed enum.
type backendEntry struct {
	name    string
	aliases []string
	build   BackendBuilder
}

var (
	backendMu    sync.RWMutex
	backendTable []backendEntry
	backendIndex = map[string]Backend{} // canonical names and aliases
)

// RegisterBackend adds a membership backend under a canonical name plus
// optional parse aliases, returning the Backend value that now selects
// it. Registration panics on a duplicate or empty name — backends are
// wired up in init functions, where a clash is a programming error.
func RegisterBackend(name string, build BackendBuilder, aliases ...string) Backend {
	if build == nil {
		panic("core: RegisterBackend with nil builder")
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if name == "" {
		panic("core: backend registration with empty name")
	}
	for _, n := range append([]string{name}, aliases...) {
		if _, dup := backendIndex[n]; dup {
			panic(fmt.Sprintf("core: backend name %q already registered", n))
		}
	}
	b := Backend(len(backendTable))
	backendTable = append(backendTable, backendEntry{name: name, aliases: aliases, build: build})
	backendIndex[name] = b
	for _, n := range aliases {
		backendIndex[n] = b
	}
	return b
}

// ParseBackend resolves a backend by canonical name or alias. It is the
// inverse of Backend.String: ParseBackend(b.String()) == b for every
// registered backend.
func ParseBackend(name string) (Backend, error) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	if b, ok := backendIndex[name]; ok {
		return b, nil
	}
	return 0, fmt.Errorf("core: unknown backend %q (have %v)", name, backendNamesLocked())
}

// Backends returns every registered backend's canonical name, sorted.
func Backends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := backendNamesLocked()
	sort.Strings(names)
	return names
}

func backendNamesLocked() []string {
	names := make([]string, len(backendTable))
	for i, e := range backendTable {
		names[i] = e.name
	}
	return names
}

// String names the backend for reports and round-trips through
// ParseBackend.
func (b Backend) String() string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	if int(b) >= 0 && int(b) < len(backendTable) {
		return backendTable[b].name
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// builder returns the registered builder, or an error for a Backend
// value that was never registered.
func (b Backend) builder() (BackendBuilder, error) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	if int(b) < 0 || int(b) >= len(backendTable) {
		return nil, fmt.Errorf("core: unknown backend %d", int(b))
	}
	return backendTable[b].build, nil
}

// The built-in backends register in constant order so the registry
// slots line up with the Backend constants; direct-lookup takes slot 0,
// which makes it the zero-value default.
func init() {
	directB := RegisterBackend("direct-lookup", buildMaskKernel, "direct")
	bloomB := RegisterBackend("parallel-bloom", buildParallelBloom, "bloom")
	classicB := RegisterBackend("classic-bloom", buildClassicBloom, "classic")
	blockedB := RegisterBackend("blocked-bloom", buildBlocked, "blocked")
	if bloomB != BackendBloom || directB != BackendDirect || classicB != BackendClassic || blockedB != BackendBlocked {
		panic("core: built-in backends registered out of order")
	}
}

// perLanguage is the kernel of the per-language backends: one
// membership filter per language, queried in the languages×grams loop.
type perLanguage[F interface{ Test(uint32) bool }] struct{ filters []F }

// AccumulateInto adds each language's match count over gs into counts.
func (p *perLanguage[F]) AccumulateInto(counts []int, gs []uint32) {
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
func (p *perLanguage[F]) Count(counts []int, w *Window, b []byte) int {
	return CountGrams(p, counts, w, b)
}

// buildPerLanguage programs one filter per language, each from its own
// seed, and wraps them in the languages×grams kernel.
func buildPerLanguage[F interface {
	Test(uint32) bool
	ProgramAll([]uint32)
}](cfg Config, ps *ProfileSet, newFilter func(seed int64) (F, error)) (Kernel, error) {
	fs := &perLanguage[F]{filters: make([]F, len(ps.Profiles))}
	for i, p := range ps.Profiles {
		f, err := newFilter(perLanguageSeed(cfg.Seed, i))
		if err != nil {
			return nil, err
		}
		f.ProgramAll(p.Grams)
		fs.filters[i] = f
	}
	return fs, nil
}

// buildParallelBloom is the paper's design: k H3 hashes into k
// independent m-bit vectors per language (§3.1).
func buildParallelBloom(cfg Config, ps *ProfileSet) (Kernel, error) {
	return buildPerLanguage(cfg, ps, func(seed int64) (*bloom.Parallel, error) {
		return bloom.NewParallel(cfg.K, ngram.Bits(cfg.N), cfg.MBits, seed)
	})
}

// buildClassicBloom is the ablation: one k·m-bit vector shared by all k
// hash functions.
func buildClassicBloom(cfg Config, ps *ProfileSet) (Kernel, error) {
	return buildPerLanguage(cfg, ps, func(seed int64) (*bloom.Classic, error) {
		return bloom.NewClassic(cfg.K, ngram.Bits(cfg.N), cfg.MBits*uint32(cfg.K), seed)
	})
}

// perLanguageSeed offsets the configured seed per language so filters
// are independent, as in hardware where each replica has its own H3
// matrices.
func perLanguageSeed(seed int64, index int) int64 {
	return seed + int64(index)*1000003
}

// blockedSeed derives the shared-hash seed for the blocked backend.
// All languages share one hash stage (that is what makes the fused
// layout possible), so the seed is offset once, away from the
// per-language seed sequence the other backends draw from.
func blockedSeed(seed int64) int64 {
	return seed + 982451653
}

// buildBlocked is the fourth backend: a cache-line-blocked Bloom
// filter fused across all languages. The first hash selects a 512-bit
// block, the remaining k−1 hashes select bits inside it, and the
// per-language blocks for a block index are contiguous, so scoring
// one n-gram touches L consecutive cache lines. The block count is
// sized so the modelled false positive rate at full profile load
// matches the parallel backend's §3.1 model at the same Config. A
// profile set loaded from an NGPS v2 file may carry the programmed
// layout; when it is consistent with the configuration it is used
// directly instead of re-programming.
func buildBlocked(cfg Config, ps *ProfileSet) (Kernel, error) {
	if cfg.K < 2 {
		return nil, fmt.Errorf("core: blocked backend needs k >= 2 (one block-select hash plus k-1 bit probes), got k=%d", cfg.K)
	}
	set := ps.blocked
	var err error
	if set != nil {
		err = checkBlockedLayout(cfg, ps, set)
	} else {
		set, err = buildBlockedSet(cfg, ps.Profiles)
	}
	if err != nil {
		return nil, err
	}
	return blockedKernel{set}, nil
}

// blockedKernel serves the fused blocked filter set, whose
// AccumulateInto scores every language per n-gram, as a Kernel.
type blockedKernel struct{ *bloom.BlockedSet }

// Count counts the n-grams of p block by block.
func (k blockedKernel) Count(counts []int, w *Window, p []byte) int {
	return CountGrams(k, counts, w, p)
}

// buildBlockedSet programs a fused blocked filter set from profiles.
func buildBlockedSet(cfg Config, profiles []*ngram.Profile) (*bloom.BlockedSet, error) {
	target := bloom.FalsePositiveRate(cfg.TopT, cfg.MBits, cfg.K)
	blocks := bloom.BlocksForTarget(cfg.TopT, cfg.K, target)
	set, err := bloom.NewBlockedSet(len(profiles), cfg.K, ngram.Bits(cfg.N), blocks, blockedSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	for i, p := range profiles {
		set.AddAll(i, p.Grams)
	}
	return set, nil
}

// checkBlockedLayout verifies a deserialized blocked layout against
// the profile set it arrived with, so a stale or hand-edited layout
// section fails loudly instead of silently misclassifying.
func checkBlockedLayout(cfg Config, ps *ProfileSet, set *bloom.BlockedSet) error {
	if set.Langs() != len(ps.Profiles) {
		return fmt.Errorf("core: embedded blocked layout has %d languages, profile set has %d", set.Langs(), len(ps.Profiles))
	}
	if set.K() != cfg.K {
		return fmt.Errorf("core: embedded blocked layout has k=%d, config has k=%d", set.K(), cfg.K)
	}
	if set.InputBits() != ngram.Bits(cfg.N) {
		return fmt.Errorf("core: embedded blocked layout hashes %d-bit n-grams, config needs %d", set.InputBits(), ngram.Bits(cfg.N))
	}
	if set.Seed() != blockedSeed(cfg.Seed) {
		return fmt.Errorf("core: embedded blocked layout was built under a different seed")
	}
	for i, p := range ps.Profiles {
		if set.N(i) != len(p.Grams) {
			return fmt.Errorf("core: embedded blocked layout programmed %d n-grams for %q, profile has %d", set.N(i), p.Language, len(p.Grams))
		}
	}
	return nil
}
