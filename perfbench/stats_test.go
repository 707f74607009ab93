package main

import (
	"math"
	"testing"
	"time"

	"bloomlang/perfbench/probe"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{20, 0.5, true},
		{19, 0.5, false},
		{100, 0.9, true},
		{99, 0.9, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{10000, 0.999, true},
		{9999, 0.999, false},
		{0, 0.5, false},
	} {
		if got := reportable(c.n, c.p); got != c.want {
			t.Errorf("reportable(%d, %g) = %t, want %t (%d beyond)", c.n, c.p, got, c.want, beyond(c.n, c.p))
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 0.5}, {150, 0.9}, {1500, 0.99}, {20000, 0.999}} {
		if got := highestReportable(c.n); got != c.want {
			t.Errorf("highestReportable(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

// TestNormalisationCancelsAKnownSlowdown builds a phase in which the
// machine runs at full speed at some times and slowed by known factors
// at others. The program's rates and latencies slow by the same factor
// as the probe beside them, so every normalised figure must read the
// same in every slice while the raw ones vary.
func TestNormalisationCancelsAKnownSlowdown(t *testing.T) {
	const docsPerSec = 1000.0
	const latencyMS = 2.0
	// Slowdown during each probe slice; load slice i runs between
	// probes i and i+1 at the speed their mean rate gives.
	probeSlow := []float64{1, 1, 1.5, 1.5, 2.5, 1, 1.25}
	ph := &phase{}
	for _, f := range probeSlow {
		wall := time.Duration(f * float64(time.Second))
		ph.probes = append(ph.probes, probe.Slice{Ops: refProbeRate, Wall: wall})
	}
	var slow []float64
	for i := 0; i+1 < len(probeSlow); i++ {
		g := 2 / (1/probeSlow[i] + 1/probeSlow[i+1])
		slow = append(slow, g)
		// A long slice, so rounding the document count stays tiny.
		s := sliceResult{wall: 1000 * time.Second}
		s.docs = int(math.Round(docsPerSec / g * 1000))
		s.lat = []time.Duration{time.Duration(latencyMS * g * float64(time.Millisecond))}
		ph.slices = append(ph.slices, s)
	}
	norm, raw := ph.rates(func(s *sliceResult) int { return s.docs }, 1)
	for i := range norm {
		if math.Abs(norm[i]-docsPerSec) > 1e-6*docsPerSec {
			t.Errorf("slice %d (slowed %.3gx): normalised rate %g, want %g (raw %g)", i, slow[i], norm[i], docsPerSec, raw[i])
		}
	}
	latN, latR := ph.latencies()
	for _, v := range latN {
		if math.Abs(v-latencyMS) > 1e-6 {
			t.Errorf("normalised latency %g ms, want %g ms", v, latencyMS)
		}
	}
	if latR[0] == latR[len(latR)-1] {
		t.Errorf("raw latencies do not vary: the test series is not slowed")
	}
}

func TestNormaliseArithmetic(t *testing.T) {
	half := probe.Slice{Ops: refProbeRate / 2, Wall: time.Second}
	if got := speed(half); got != 0.5 {
		t.Errorf("speed with the probe at half its reference rate: %g, want 0.5", got)
	}
	if got := normRate(100, 0.5); got != 200 {
		t.Errorf("a rate measured at half the reference speed: %g, want 200", got)
	}
	if got := normDuration(10, 0.5); got != 5 {
		t.Errorf("a duration measured at half the reference speed: %g, want 5", got)
	}
}
