package serve_test

import (
	"fmt"
	"hash/fnv"
	"runtime"
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
func setupTrainSplit(t *testing.T) map[string][][]byte {
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
func setup(t *testing.T, dir string, texts map[string][][]byte) *serve.Server {
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
// resident. The profiles it produces are about 0.2 MB and the serving
// mask plane 2 MiB; training's vocabulary index, counts and ranking,
// and the registry's write and reload, must fit in the rest of 8 MB.
// Finalize ranks on up to GOMAXPROCS goroutines, each with its own
// ranking scratch of about 0.2 MB, so the test pins GOMAXPROCS at 2 to
// measure the same set-up on any machine.
func TestSetupAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	texts := setupTrainSplit(t)
	setup(t, t.TempDir(), texts) // first-use costs outside set-up proper
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv := setup(t, dir, texts)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(srv)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("set-up allocated %.2f MB", float64(alloc)/1e6)
	if alloc > 8e6 {
		t.Errorf("set-up allocated %.2f MB, want at most 8 MB", float64(alloc)/1e6)
	}
}
