package main

import (
	"math"
	"sort"

	"bloomlang/perfbench/probe"
)

// refProbeRate is P0, the probe rate (membership tests per second over
// all cores) that normalised timings are expressed against. It is a
// fixed constant, so normalised figures from any run compare directly.
const refProbeRate = 80e6

// speed returns the machine's speed during probe slice s relative to
// the reference, P_run / P0.
func speed(s probe.Slice) float64 { return s.Rate() / refProbeRate }

// normRate scales a rate measured at relative machine speed sp to the
// reference speed: raw × P0 / P_run.
func normRate(raw, sp float64) float64 { return raw / sp }

// normDuration scales a duration measured at relative machine speed sp
// to the reference speed. A duration is the inverse of a rate, so it
// scales by P_run / P0.
func normDuration(raw, sp float64) float64 { return raw * sp }

// minTail is the number of samples that must lie beyond a reported
// percentile.
const minTail = 10

// rank returns the 1-based nearest-rank position of the p-quantile
// among n samples. The small epsilon keeps products such as 0.9×100,
// which float64 gives as 90.00000000000001, at their exact rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns the number of samples above the p-quantile of n.
func beyond(n int, p float64) int { return n - rank(n, p) }

// reportable reports whether the p-quantile of n samples has at least
// minTail samples beyond it.
func reportable(n int, p float64) bool { return n > 0 && beyond(n, p) >= minTail }

// quantile returns the nearest-rank p-quantile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ladder is the sequence of percentiles a timing may be reported at.
var ladder = []float64{0.5, 0.9, 0.99, 0.999}

// highestReportable returns the highest percentile on the ladder that
// has at least minTail of n samples beyond it, or 0 when none has.
func highestReportable(n int) float64 {
	best := 0.0
	for _, p := range ladder {
		if reportable(n, p) {
			best = p
		}
	}
	return best
}
