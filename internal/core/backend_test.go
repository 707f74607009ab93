package core

import (
	"strings"
	"testing"
)

// TestBackendStringParseRoundTrip pins the registry contract the CLIs
// rely on: every registered backend's String() parses back to itself,
// and the historical aliases keep working.
func TestBackendStringParseRoundTrip(t *testing.T) {
	for _, b := range []Backend{BackendBloom, BackendDirect, BackendClassic, BackendBlocked} {
		got, err := ParseBackend(b.String())
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", b.String(), err)
		}
		if got != b {
			t.Errorf("ParseBackend(%q) = %v, want %v", b.String(), got, b)
		}
	}
	aliases := map[string]Backend{
		"bloom":   BackendBloom,
		"direct":  BackendDirect,
		"classic": BackendClassic,
		"blocked": BackendBlocked,
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

func TestParseBackendUnknownNameListsChoices(t *testing.T) {
	_, err := ParseBackend("fpga")
	if err == nil {
		t.Fatal("ParseBackend accepted an unknown name")
	}
	if !strings.Contains(err.Error(), "parallel-bloom") {
		t.Errorf("error %q does not list known backends", err)
	}
}

func TestBackendsListsCanonicalNames(t *testing.T) {
	names := Backends()
	want := map[string]bool{"parallel-bloom": false, "direct-lookup": false, "classic-bloom": false, "blocked-bloom": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("Backends() = %v is missing %q", names, n)
		}
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

// acceptAll matches every n-gram — a degenerate per-language filter
// that exists only to prove third-party filters plug in through the
// languages×grams kernel.
type acceptAll struct{}

func (acceptAll) Test(uint32) bool { return true }

func TestRegisterBackendExtendsClassifier(t *testing.T) {
	b := RegisterBackend("test-accept-all", func(cfg Config, ps *ProfileSet) (Kernel, error) {
		return make(perLanguage[acceptAll], len(ps.Profiles)), nil
	}, "accept")
	if got, err := ParseBackend("accept"); err != nil || got != b {
		t.Fatalf("ParseBackend(alias) = %v, %v", got, err)
	}
	if b.String() != "test-accept-all" {
		t.Fatalf("String() = %q", b.String())
	}
	ps := trainMini(t, Config{TopT: 500})
	det, err := NewDetector(ps, WithBackend(b))
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte("the registry must accept custom membership structures")
	m := det.Detect(doc)
	// Every language matches every n-gram, so the winner is an exact tie
	// broken to the first language, with score 1.
	if m.Unknown || m.Score != 1 || m.Count != m.NGrams {
		t.Errorf("accept-all detect = %+v", m)
	}
	if m.Lang != det.Languages()[0] {
		t.Errorf("tie broke to %q, want first language %q", m.Lang, det.Languages()[0])
	}
}

// rejectAll is a fused kernel that matches nothing — it exists only to
// prove third-party fused backends plug in through the registry.
type rejectAll struct{ langs int }

func (rejectAll) AccumulateInto([]int, []uint32) {}

func TestRegisterBackendAcceptsFusedKernel(t *testing.T) {
	b := RegisterBackend("test-reject-all", func(cfg Config, ps *ProfileSet) (Kernel, error) {
		return rejectAll{langs: len(ps.Profiles)}, nil
	}, "reject")
	if got, err := ParseBackend("reject"); err != nil || got != b {
		t.Fatalf("ParseBackend(alias) = %v, %v", got, err)
	}
	ps := trainMini(t, Config{TopT: 500})
	det, err := NewDetector(ps, WithBackend(b))
	if err != nil {
		t.Fatal(err)
	}
	doc := []byte("fused registrations must flow through the same registry")
	m := det.Detect(doc)
	// Nothing matches anything: zero counts everywhere, tie broken to
	// the first language with score 0.
	if m.Count != 0 || m.Score != 0 || m.NGrams == 0 {
		t.Errorf("reject-all detect = %+v", m)
	}
}

func TestBlockedBackendRejectsSingleHash(t *testing.T) {
	ps := trainMini(t, Config{TopT: 500})
	single := &ProfileSet{Config: ps.Config, Profiles: ps.Profiles}
	single.Config.K = 1
	if _, err := New(single, BackendBlocked); err == nil {
		t.Error("blocked backend accepted k=1 (no bit probes left after block select)")
	}
}

func TestRegisterBackendRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	RegisterBackend("parallel-bloom", func(cfg Config, ps *ProfileSet) (Kernel, error) {
		return rejectAll{}, nil
	})
}
