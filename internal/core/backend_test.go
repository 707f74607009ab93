package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestBackendStringParseRoundTrip pins the contract the CLIs rely on:
// every backend's String() parses back to itself,
// and the historical aliases keep working.
func TestBackendStringParseRoundTrip(t *testing.T) {
	for _, b := range []Backend{BackendBloom, BackendDirect} {
		got, err := ParseBackend(b.String())
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", b.String(), err)
		}
		if got != b {
			t.Errorf("ParseBackend(%q) = %v, want %v", b.String(), got, b)
		}
	}
	aliases := map[string]Backend{
		"bloom":  BackendBloom,
		"direct": BackendDirect,
	}
	for name, want := range aliases {
		got, err := ParseBackend(name)
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ParseBackend(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestParseBackendUnknownNameListsChoices also pins that the deleted
// blocked and classic backends' names no longer parse.
func TestParseBackendUnknownNameListsChoices(t *testing.T) {
	for _, name := range []string{"fpga", "blocked", "classic", "classic-bloom"} {
		_, err := ParseBackend(name)
		if err == nil {
			t.Fatalf("ParseBackend accepted unknown name %q", name)
		}
		for _, known := range []string{"direct-lookup", "parallel-bloom"} {
			if !strings.Contains(err.Error(), known) {
				t.Errorf("error %q does not list %q", err, known)
			}
		}
	}
}

func TestBackendsListsCanonicalNames(t *testing.T) {
	want := []string{"direct-lookup", "parallel-bloom"}
	if names := Backends(); !reflect.DeepEqual(names, want) {
		t.Errorf("Backends() = %v, want %v", names, want)
	}
}

func TestBackendStringUnregisteredValue(t *testing.T) {
	if got := Backend(9999).String(); got != "backend(9999)" {
		t.Errorf("String() = %q", got)
	}
	if _, err := New(&ProfileSet{Config: DefaultConfig(), Profiles: trainMini(t, Config{TopT: 500}).Profiles}, Backend(9999)); err == nil {
		t.Error("New accepted an unregistered backend")
	}
}

// FuzzKernelCount is the differential check of the serving path against
// the staged reference on every built-in backend, at subsample 1 and 3:
// Count over the fuzzer's bytes, split at two fuzzer-chosen points with
// one carried Window, must return AccumulateInto's counts over
// ExtractGrams of the same bytes, and as many n-grams as ExtractGrams
// extracts.
func FuzzKernelCount(f *testing.F) {
	base := trainMini(f, Config{TopT: 800})
	var clfs []*Classifier
	for _, sub := range []int{1, 3} {
		ps := &ProfileSet{Config: base.Config, Profiles: base.Profiles}
		ps.Config.Subsample = sub
		for _, b := range []Backend{BackendDirect, BackendBloom} {
			c, err := New(ps, b)
			if err != nil {
				f.Fatal(err)
			}
			clfs = append(clfs, c)
		}
	}
	f.Add([]byte(""), uint16(0), uint16(0))
	f.Add([]byte("the quick brown fox"), uint16(2), uint16(9))
	f.Add([]byte("\x00\xff un documento tr\xe8s fran\xe7ais \x01\x02"), uint16(7), uint16(3))
	f.Add(getMiniCorpus(f).Test["fi"][0].Text, uint16(301), uint16(1000))
	f.Fuzz(func(t *testing.T, data []byte, cutA, cutB uint16) {
		a, b := int(cutA)%(len(data)+1), int(cutB)%(len(data)+1)
		if a > b {
			a, b = b, a
		}
		for _, c := range clfs {
			gs := c.ExtractGrams(nil, data)
			want := make([]int, len(c.Languages()))
			c.kernel.AccumulateInto(want, gs)
			got := make([]int, len(c.Languages()))
			w := c.window
			n := c.kernel.Count(got, &w, data[:a]) + c.kernel.Count(got, &w, data[a:b]) + c.kernel.Count(got, &w, data[b:])
			if n != len(gs) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s subsample %d, %d bytes cut at %d,%d: Count = %d grams, counts %v; reference %d grams, counts %v",
					c.Backend(), c.Config().Subsample, len(data), a, b, n, got, len(gs), want)
			}
		}
	})
}
