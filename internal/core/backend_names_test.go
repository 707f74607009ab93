package core_test

// The backend name table lives in the root bloomlang package, which
// links the paper's kernel; its tests stay beside the backend matrix
// core's suites run over, under the names they always had.

import (
	"reflect"
	"strings"
	"testing"

	"bloomlang"
	"bloomlang/internal/core"
)

// TestBackendStringParseRoundTrip pins the contract the CLIs rely on:
// every backend's String() parses back to itself,
// and the historical aliases keep working.
func TestBackendStringParseRoundTrip(t *testing.T) {
	for _, b := range []bloomlang.Backend{bloomlang.BackendBloom, bloomlang.BackendDirect} {
		got, err := bloomlang.ParseBackend(b.String())
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", b.String(), err)
		}
		if got != b {
			t.Errorf("ParseBackend(%q) = %v, want %v", b.String(), got, b)
		}
	}
	aliases := map[string]bloomlang.Backend{
		"bloom":  bloomlang.BackendBloom,
		"direct": bloomlang.BackendDirect,
	}
	for name, want := range aliases {
		got, err := bloomlang.ParseBackend(name)
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ParseBackend(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestParseBackendUnknownNameListsChoices also pins that the deleted
// blocked and classic backends' names no longer parse, and that
// WithBackend on a name ParseBackend refuses fails NewDetector.
func TestParseBackendUnknownNameListsChoices(t *testing.T) {
	ps := core.TrainMini(t, core.Config{TopT: 200})
	for _, name := range []string{"fpga", "blocked", "classic", "classic-bloom"} {
		_, err := bloomlang.ParseBackend(name)
		if err == nil {
			t.Fatalf("ParseBackend accepted unknown name %q", name)
		}
		for _, known := range []string{"direct-lookup", "parallel-bloom"} {
			if !strings.Contains(err.Error(), known) {
				t.Errorf("error %q does not list %q", err, known)
			}
		}
		if _, err := bloomlang.NewDetector(ps, bloomlang.WithBackend(bloomlang.Backend(name))); err == nil {
			t.Errorf("NewDetector accepted backend %q", name)
		}
	}
}

func TestBackendsListsCanonicalNames(t *testing.T) {
	want := []string{"direct-lookup", "parallel-bloom"}
	if names := bloomlang.Backends(); !reflect.DeepEqual(names, want) {
		t.Errorf("Backends() = %v, want %v", names, want)
	}
}
