//go:build !race

package train_test

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
