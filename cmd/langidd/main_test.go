package main

// Unit tests for the daemon's profile-source resolution: every
// misconfiguration must fail fast with an actionable message — the
// daemon must never fall through to serving nothing.

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bloomlang/internal/core"
	"bloomlang/internal/registry"
	"bloomlang/internal/serve"
	"bloomlang/internal/train"
)

// trainTiny trains a one-language profile set small enough for a unit
// test.
func trainTiny(t *testing.T) (*core.ProfileSet, train.Stats) {
	t.Helper()
	tr, err := train.New(core.Config{TopT: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Add("en", []byte("the quick brown fox jumps over the lazy dog and runs away")); err != nil {
		t.Fatal(err)
	}
	ps, stats, err := tr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return ps, stats
}

func TestResolveProfilesNoSource(t *testing.T) {
	_, err := buildServer("", "", serve.Config{})
	if err == nil {
		t.Fatal("no profile source resolved without error")
	}
	for _, want := range []string{"no profiles to serve", "-registry", "-profiles"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

func TestResolveProfilesMissingFileNoFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.bin")
	_, err := buildServer("", path, serve.Config{})
	if err == nil {
		t.Fatal("missing profile file resolved without error")
	}
	if !strings.Contains(err.Error(), "does not exist") || !strings.Contains(err.Error(), "langid train") {
		t.Errorf("error %q is not actionable", err)
	}
}

func TestResolveProfilesCorruptFileIsNotFallthrough(t *testing.T) {
	// A present-but-unreadable profile file must be reported as such,
	// not as a missing one.
	path := filepath.Join(t.TempDir(), "corrupt.bin")
	if err := os.WriteFile(path, []byte("not a profile file"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := buildServer("", path, serve.Config{})
	if err == nil || !strings.Contains(err.Error(), "loading profiles") {
		t.Fatalf("corrupt profile file err = %v, want a loading error", err)
	}
}

func TestBuildServerFromProfileFile(t *testing.T) {
	ps, _ := trainTiny(t)
	path := filepath.Join(t.TempDir(), "profiles.bin")
	if err := registry.SaveFile(path, ps); err != nil {
		t.Fatal(err)
	}
	srv, err := buildServer("", path, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.ProfileVersion != "" || len(st.Languages) != 1 || st.Languages[0] != "en" {
		t.Errorf("serving version %q, languages %v; want unversioned [en]", st.ProfileVersion, st.Languages)
	}
}

func TestBuildServerRegistryExclusivity(t *testing.T) {
	_, err := buildServer(t.TempDir(), filepath.Join(t.TempDir(), "profiles.bin"), serve.Config{})
	if err == nil || !strings.Contains(err.Error(), "cannot be combined") {
		t.Fatalf("registry+profiles err = %v", err)
	}
}

func TestBuildServerEmptyRegistry(t *testing.T) {
	_, err := buildServer(filepath.Join(t.TempDir(), "reg"), "", serve.Config{})
	if err == nil || !strings.Contains(err.Error(), "no active version") || !strings.Contains(err.Error(), "langid train") {
		t.Fatalf("empty registry err = %v, want actionable no-active-version message", err)
	}
}

func TestBuildServerFromRegistry(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "reg")
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.Create(trainTiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Activate(m.Version); err != nil {
		t.Fatal(err)
	}
	srv, err := buildServer(dir, "", serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().ProfileVersion; got != m.Version {
		t.Errorf("stats version %q, want %q", got, m.Version)
	}
	if _, err := buildServer(dir, "", serve.Config{MinMargin: math.NaN()}); err == nil {
		t.Error("buildServer accepted a NaN min margin")
	}
}
