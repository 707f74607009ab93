//go:build race

package train_test

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation adds bookkeeping allocations that break strict
// allocation accounting.
const raceEnabled = true
