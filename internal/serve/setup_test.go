package serve_test

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"testing"

	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/registry"
	"bloomlang/internal/serve"
	"bloomlang/internal/train"
)

// setupTrainSplit is perfbench's training split at seed 1: 10
// languages × 60 documents × 800 words, each language from the
// generator seed perfbench derives for it.
func setupTrainSplit(t testing.TB) map[string][][]byte {
	t.Helper()
	texts := map[string][][]byte{}
	for _, lang := range corpus.Languages() {
		spec, err := corpus.ByCode(lang)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s", 1, "train/"+lang)
		gen := corpus.NewGenerator(spec, int64(h.Sum64()>>1))
		for range 60 {
			texts[lang] = append(texts[lang], gen.Document(800))
		}
	}
	return texts
}

// setup runs the set-up a server goes through before its first
// request: train, store and activate a registry version, and serve it.
func setup(t testing.TB, dir string, texts map[string][][]byte) *serve.Server {
	t.Helper()
	tr, err := train.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, lang := range corpus.Languages() {
		for _, doc := range texts[lang] {
			if err := tr.Add(lang, doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	ps, stats, err := tr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.Create(ps, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Activate(m.Version); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewFromRegistry(reg, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestSetupAllocations bounds what set-up allocates: with no
// collection between set-up and the first request, all of it can stay
// resident, so the test measures set-up with the collector off. The
// profiles it produces are about 0.2 MB and the serving mask plane
// 2 MiB, the table training numbered its n-grams through, handed on;
// training's counts and ranking, and the registry's write and reload,
// must fit in the rest of 4.5 MB. (A collection between Finalize and the
// plane frees the handed-back table, and the plane allocates its
// own.) Finalize ranks on up to GOMAXPROCS goroutines, each with its
// own ranking scratch of about 0.2 MB, so the test pins GOMAXPROCS at
// 2 to measure the same set-up on any machine.
func TestSetupAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	texts := setupTrainSplit(t)
	setup(t, t.TempDir(), texts) // first-use costs outside set-up proper
	dir := t.TempDir()
	var before, after runtime.MemStats
	gcPercent := debug.SetGCPercent(-1)
	runtime.ReadMemStats(&before)
	srv := setup(t, dir, texts)
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gcPercent)
	runtime.KeepAlive(srv)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("set-up allocated %.2f MB", float64(alloc)/1e6)
	if alloc > 4.5e6 {
		t.Errorf("set-up allocated %.2f MB, want at most 4.5 MB", float64(alloc)/1e6)
	}
}

// BenchmarkTrainSetup times TestSetupAllocations' set-up, one whole
// set-up per iteration into a registry of its own, and reports what it
// allocates, with GOMAXPROCS pinned at 2 as there. The collector runs,
// so a cycle that falls between Finalize and the plane shows in B/op.
func BenchmarkTrainSetup(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	texts := setupTrainSplit(b)
	b.ReportAllocs()
	for b.Loop() {
		setup(b, b.TempDir(), texts)
	}
}
