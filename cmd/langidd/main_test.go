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

// writeCorpus writes a tiny two-language training corpus in the
// cmd/corpusgen layout (LANG/train/NNNNNN.txt) and returns its root.
func writeCorpus(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	for lang, text := range map[string]string{
		"en": "the council shall adopt the measures necessary for the application of this regulation",
		"fi": "neuvosto hyväksyy tämän asetuksen soveltamiseksi tarvittavat toimenpiteet",
	} {
		dir := filepath.Join(root, lang, "train")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "000000.txt"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestResolveProfilesNoSource(t *testing.T) {
	_, err := resolveProfiles(profileSource{})
	if err == nil {
		t.Fatal("no profile source resolved without error")
	}
	for _, want := range []string{"-registry", "-profiles", "-corpus"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

func TestResolveProfilesMissingFileNoFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.bin")
	_, err := resolveProfiles(profileSource{profilePath: path})
	if err == nil {
		t.Fatal("missing profile file resolved without error")
	}
	if !strings.Contains(err.Error(), "does not exist") || !strings.Contains(err.Error(), "langid train") {
		t.Errorf("error %q is not actionable", err)
	}
}

func TestResolveProfilesMissingFileWithCorpusFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.bin")
	ps, err := resolveProfiles(profileSource{profilePath: path, corpusDir: writeCorpus(t)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Profiles) == 0 {
		t.Fatal("fallback training produced no profiles")
	}
}

func TestResolveProfilesCorruptFileIsNotFallthrough(t *testing.T) {
	// A present-but-unreadable profile file must error even when a
	// fallback source is available: silently retraining over it would
	// mask corruption.
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.bin")
	if err := os.WriteFile(path, []byte("not a profile file"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := resolveProfiles(profileSource{profilePath: path, corpusDir: writeCorpus(t)})
	if err == nil {
		t.Fatal("corrupt profile file fell through to training")
	}
}

func TestBuildServerRegistryExclusivity(t *testing.T) {
	_, _, err := buildServer(profileSource{registryDir: t.TempDir(), corpusDir: writeCorpus(t)}, serve.Config{})
	if err == nil || !strings.Contains(err.Error(), "cannot be combined") {
		t.Fatalf("registry+corpus err = %v", err)
	}
}

func TestBuildServerEmptyRegistry(t *testing.T) {
	_, _, err := buildServer(profileSource{registryDir: filepath.Join(t.TempDir(), "reg")}, serve.Config{})
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
	tr, err := train.New(core.Config{TopT: 200}, train.WithShards(1))
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
	m, err := reg.Create(ps, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Activate(m.Version); err != nil {
		t.Fatal(err)
	}
	srv, version, err := buildServer(profileSource{registryDir: dir}, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if version != m.Version {
		t.Errorf("serving version %q, want %q", version, m.Version)
	}
	if got := srv.Stats().ProfileVersion; got != m.Version {
		t.Errorf("stats version %q, want %q", got, m.Version)
	}
	if _, _, err := buildServer(profileSource{registryDir: dir}, serve.Config{MinMargin: math.NaN()}); err == nil {
		t.Error("buildServer accepted a NaN min margin")
	}
}
