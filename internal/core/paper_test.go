package core_test

// The paper's side of the backend matrix: internal/bloom imports core,
// so core's own tests cannot import it. This file, in the external
// test package, adds the parallel-bloom kernel to the matrix core's
// equivalence, span and allocation suites run over, and holds the tests
// of the Bloom pieces that moved out of core. internal/train imports
// core too, so it also hands core's tests their trainer.

import (
	"math/rand"
	"testing"

	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/ngram"
	"bloomlang/internal/train"
)

func init() {
	core.AddTestKernel(bloom.Backend, bloom.NewKernel)
	core.SetTrainTexts(func(cfg core.Config, texts map[string][][]byte) (*core.ProfileSet, error) {
		ps, _, err := train.Texts(cfg, texts)
		return ps, err
	})
}

func TestConfigExpectedFalsePositiveRate(t *testing.T) {
	cfg := core.DefaultConfig()
	// Table 1 row 1: five per thousand.
	f := bloom.ExpectedFalsePositiveRate(cfg)
	if f < 0.004 || f > 0.006 {
		t.Errorf("expected fp rate = %v, want about 0.005", f)
	}
}

func TestBackendString(t *testing.T) {
	if bloom.Backend.String() != "parallel-bloom" ||
		core.BackendDirect.String() != "direct-lookup" {
		t.Error("backend names wrong")
	}
}

// TestFilterAccessor pins the filters the hardware models build: each
// language's ParallelFilters entry answers Test exactly as the
// parallel-bloom kernel scores that language, on member and non-member
// n-grams alike.
func TestFilterAccessor(t *testing.T) {
	ps := core.TrainMini(t, core.Config{TopT: 200})
	filters, err := bloom.ParallelFilters(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(filters) != len(ps.Profiles) {
		t.Fatalf("%d filters for %d languages", len(filters), len(ps.Profiles))
	}
	k, err := bloom.NewKernel(ps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var grams []uint32
	for _, p := range ps.Profiles {
		grams = append(grams, p.Grams...)
	}
	for i := 0; i < 5000; i++ {
		grams = append(grams, rng.Uint32()&(1<<ngram.Bits(ps.Config.N)-1))
	}
	hits := 0
	counts := make([]int, len(ps.Profiles))
	for _, g := range grams {
		clear(counts)
		core.KernelCounts(k, counts, []uint32{g})
		for l, f := range filters {
			if got := f.Test(g); got != (counts[l] == 1) {
				t.Fatalf("language %d gram %#x: filter Test = %v, kernel count %d", l, g, got, counts[l])
			} else if got {
				hits++
			}
		}
	}
	if hits < len(grams)-5000 {
		t.Errorf("only %d hits over %d member n-grams", hits, len(grams)-5000)
	}
}
