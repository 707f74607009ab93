package core

import (
	"fmt"
	"sort"
	"sync"

	"bloomlang/internal/bloom"
	"bloomlang/internal/ngram"
)

// Matcher is one language's membership structure: it answers whether a
// packed n-gram belongs to that language's profile. The paper's
// Parallel Bloom Filter and the classic single-vector Bloom filter
// implement it; external packages may register additional
// implementations via RegisterBackend.
type Matcher interface {
	Test(g uint32) bool
}

// BackendBuilder constructs the Matcher for one language. index is the
// language's position in the sorted profile set, so builders can derive
// independent per-language seeds the way the hardware gives each
// replica its own H3 matrices.
type BackendBuilder func(cfg Config, index int, p *ngram.Profile) (Matcher, error)

// Kernel is a fused all-languages scoring kernel: instead of one
// Matcher per language queried in a languages×grams loop, a Kernel
// scores every language for each n-gram in a single pass — the
// software analogue of the hardware testing one n-gram against all
// language classifiers in the same clock (§3.2). AccumulateInto adds
// each language's match count over gs into counts (len(Languages()))
// and must not allocate; Test answers per-language membership for the
// paths that need a single probe.
type Kernel interface {
	AccumulateInto(counts []int, gs []uint32)
	Test(lang int, g uint32) bool
}

// SetBuilder constructs the fused Kernel over the whole profile set at
// once — fused backends need every language's profile up front to lay
// the per-language state out contiguously.
type SetBuilder func(cfg Config, ps *ProfileSet) (Kernel, error)

// backendEntry is one registered membership backend. The entry's slot
// in the registry table is its Backend value, so the registry is an
// open-ended extension of the original closed enum. Exactly one of
// build and buildSet is non-nil: per-language backends provide build,
// fused backends provide buildSet.
type backendEntry struct {
	name     string
	aliases  []string
	build    BackendBuilder
	buildSet SetBuilder
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
	return register(backendEntry{name: name, aliases: aliases, build: build})
}

// RegisterFusedBackend adds a fused membership backend: one whose
// Kernel scores all languages per n-gram in a single pass instead of
// providing per-language Matchers. Registration semantics match
// RegisterBackend.
func RegisterFusedBackend(name string, build SetBuilder, aliases ...string) Backend {
	if build == nil {
		panic("core: RegisterFusedBackend with nil builder")
	}
	return register(backendEntry{name: name, aliases: aliases, buildSet: build})
}

func register(e backendEntry) Backend {
	backendMu.Lock()
	defer backendMu.Unlock()
	if e.name == "" {
		panic("core: backend registration with empty name")
	}
	for _, n := range append([]string{e.name}, e.aliases...) {
		if _, dup := backendIndex[n]; dup {
			panic(fmt.Sprintf("core: backend name %q already registered", n))
		}
	}
	b := Backend(len(backendTable))
	backendTable = append(backendTable, e)
	backendIndex[e.name] = b
	for _, n := range e.aliases {
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

// builders returns the registered per-language and fused builders
// (exactly one non-nil), or an error for a Backend value that was
// never registered.
func (b Backend) builders() (BackendBuilder, SetBuilder, error) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	if int(b) < 0 || int(b) >= len(backendTable) {
		return nil, nil, fmt.Errorf("core: unknown backend %d", int(b))
	}
	return backendTable[b].build, backendTable[b].buildSet, nil
}

// The built-in backends register in constant order so the registry
// slots line up with the Backend constants; direct-lookup takes slot 0,
// which makes it the zero-value default.
func init() {
	directB := RegisterFusedBackend("direct-lookup", buildMaskKernel, "direct")
	bloomB := RegisterBackend("parallel-bloom", buildParallelBloom, "bloom")
	classicB := RegisterBackend("classic-bloom", buildClassicBloom, "classic")
	blockedB := RegisterFusedBackend("blocked-bloom", buildBlocked, "blocked")
	if bloomB != BackendBloom || directB != BackendDirect || classicB != BackendClassic || blockedB != BackendBlocked {
		panic("core: built-in backends registered out of order")
	}
}

// buildParallelBloom is the paper's design: k H3 hashes into k
// independent m-bit vectors per language (§3.1).
func buildParallelBloom(cfg Config, index int, p *ngram.Profile) (Matcher, error) {
	f, err := bloom.NewParallel(cfg.K, ngram.Bits(cfg.N), cfg.MBits, perLanguageSeed(cfg.Seed, index))
	if err != nil {
		return nil, err
	}
	f.ProgramAll(p.Grams)
	return f, nil
}

// buildClassicBloom is the ablation: one k·m-bit vector shared by all k
// hash functions.
func buildClassicBloom(cfg Config, index int, p *ngram.Profile) (Matcher, error) {
	f, err := bloom.NewClassic(cfg.K, ngram.Bits(cfg.N), cfg.MBits*uint32(cfg.K), perLanguageSeed(cfg.Seed, index))
	if err != nil {
		return nil, err
	}
	f.ProgramAll(p.Grams)
	return f, nil
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
	if set := ps.blocked; set != nil {
		if err := checkBlockedLayout(cfg, ps, set); err != nil {
			return nil, err
		}
		return set, nil
	}
	return buildBlockedSet(cfg, ps.Profiles)
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

// kernelMatcher is the per-language view of a fused Kernel, so the
// Matcher-shaped paths (streams, diagnostics, differential tests)
// work identically on fused backends.
type kernelMatcher struct {
	k    Kernel
	lang int
}

func (m kernelMatcher) Test(g uint32) bool { return m.k.Test(m.lang, g) }
