package registry_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/registry"
	"bloomlang/internal/train"
)

var (
	fixOnce  sync.Once
	fixSets  []*core.ProfileSet
	fixStats []train.Stats
	fixErr   error
)

// fixtures trains two distinguishable profile sets (different TopT) to
// version against each other.
func fixtures(t testing.TB) ([]*core.ProfileSet, []train.Stats) {
	t.Helper()
	fixOnce.Do(func() {
		corp, err := corpus.Generate(corpus.Config{
			Languages:       []string{"en", "es", "fi"},
			DocsPerLanguage: 20,
			WordsPerDoc:     100,
			TrainFraction:   0.5,
			Seed:            23,
		})
		if err != nil {
			fixErr = err
			return
		}
		for _, topT := range []int{1200, 600} {
			tr, err := train.New(core.Config{TopT: topT})
			if err != nil {
				fixErr = err
				return
			}
			for _, lang := range corp.Languages {
				for _, doc := range corp.Train[lang] {
					if err := tr.Add(lang, doc.Text); err != nil {
						fixErr = err
						return
					}
				}
			}
			ps, stats, err := tr.Finalize()
			if err != nil {
				fixErr = err
				return
			}
			fixSets = append(fixSets, ps)
			fixStats = append(fixStats, stats)
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixSets, fixStats
}

// TestLifecycle drives the full train -> version -> activate -> swap
// -> rollback -> GC sequence against one on-disk registry.
func TestLifecycle(t *testing.T) {
	sets, stats := fixtures(t)
	reg, err := registry.Open(filepath.Join(t.TempDir(), "registry"))
	if err != nil {
		t.Fatal(err)
	}

	// Empty registry: nothing active, nothing listed.
	if _, err := reg.ActiveVersion(); !errors.Is(err, registry.ErrNoActive) {
		t.Fatalf("empty registry ActiveVersion err = %v, want ErrNoActive", err)
	}
	if ms, err := reg.List(); err != nil || len(ms) != 0 {
		t.Fatalf("empty registry List = %v, %v", ms, err)
	}

	// Create two versions.
	m1, err := reg.Create(sets[0], stats[0])
	if err != nil {
		t.Fatal(err)
	}
	if m1.Version != "v000001" {
		t.Errorf("first version id %q", m1.Version)
	}
	if m1.Checksum == "" || m1.ProfileBytes == 0 || m1.CreatedAt.IsZero() {
		t.Errorf("degenerate manifest %+v", m1)
	}
	if len(m1.Languages) != 3 || m1.Languages[0] != "en" {
		t.Errorf("manifest languages %v", m1.Languages)
	}
	if m1.Stats.Docs != stats[0].Docs {
		t.Errorf("manifest stats docs %d, want %d", m1.Stats.Docs, stats[0].Docs)
	}
	if m1.Config.TopT != 1200 {
		t.Errorf("manifest config %+v", m1.Config)
	}
	m2, err := reg.Create(sets[1], stats[1])
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != "v000002" {
		t.Errorf("second version id %q", m2.Version)
	}

	// Creating does not activate.
	if _, err := reg.ActiveVersion(); !errors.Is(err, registry.ErrNoActive) {
		t.Fatalf("Create activated implicitly: %v", err)
	}

	// Activate v1, then v2; rollback returns to v1.
	if err := reg.Activate(m1.Version); err != nil {
		t.Fatal(err)
	}
	if id, _ := reg.ActiveVersion(); id != m1.Version {
		t.Fatalf("active = %q, want %q", id, m1.Version)
	}
	if err := reg.Activate(m2.Version); err != nil {
		t.Fatal(err)
	}
	ps, m, err := reg.LoadActive()
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != m2.Version || ps.Config.TopT != 600 {
		t.Fatalf("LoadActive = %s topT=%d", m.Version, ps.Config.TopT)
	}
	back, err := reg.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back != m1.Version {
		t.Fatalf("rollback to %q, want %q", back, m1.Version)
	}
	if id, _ := reg.ActiveVersion(); id != m1.Version {
		t.Fatalf("active after rollback = %q", id)
	}
	if _, err := reg.Rollback(); err == nil {
		t.Fatal("second rollback succeeded with empty history")
	}

	// Activating the active version is a no-op, not a history entry.
	if err := reg.Activate(m1.Version); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Rollback(); err == nil {
		t.Fatal("no-op activation grew the rollback history")
	}

	// List sees both versions in order.
	ms, err := reg.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Version != m1.Version || ms[1].Version != m2.Version {
		t.Fatalf("List = %+v", ms)
	}

	// GC(0) removes everything but the active version.
	removed, err := reg.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != m2.Version {
		t.Fatalf("GC removed %v, want [%s]", removed, m2.Version)
	}
	if _, err := reg.Load(m2.Version); err == nil {
		t.Fatal("GC'd version still readable")
	}
	if _, err := reg.Load(m1.Version); err != nil {
		t.Fatalf("active version lost by GC: %v", err)
	}

	// New versions allocated after GC never reuse ids.
	m3, err := reg.Create(sets[1], stats[1])
	if err != nil {
		t.Fatal(err)
	}
	if m3.Version != "v000003" {
		t.Errorf("post-GC version id %q, want v000003", m3.Version)
	}
}

// TestManifestMatchesFiles: each version directory holds exactly its
// profile file and manifest, and the manifest's checksum and size are
// those of the profile file on disk, as Create hashed it on the way out.
func TestManifestMatchesFiles(t *testing.T) {
	sets, stats := fixtures(t)
	root := filepath.Join(t.TempDir(), "registry")
	reg, err := registry.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range sets {
		if _, err := reg.Create(ps, stats[i]); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := reg.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(sets) {
		t.Fatalf("List = %d versions, want %d", len(ms), len(sets))
	}
	for _, m := range ms {
		dir := filepath.Join(root, "versions", m.Version)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			if info.Mode().Perm() != 0o644 {
				t.Errorf("%s/%s: mode %v, want 0644", m.Version, e.Name(), info.Mode().Perm())
			}
		}
		if !slices.Equal(names, []string{"manifest.json", "profiles.bin"}) {
			t.Errorf("%s holds %v, want [manifest.json profiles.bin]", m.Version, names)
		}
		data, err := os.ReadFile(filepath.Join(dir, "profiles.bin"))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if m.Checksum != hex.EncodeToString(sum[:]) || m.ProfileBytes != int64(len(data)) {
			t.Errorf("%s manifest: checksum %s, %d bytes; profiles.bin on disk: %x, %d bytes",
				m.Version, m.Checksum, m.ProfileBytes, sum, len(data))
		}
	}
}

func TestLoadVerifiesChecksum(t *testing.T) {
	sets, stats := fixtures(t)
	root := filepath.Join(t.TempDir(), "registry")
	reg, err := registry.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.Create(sets[0], stats[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte of the stored profiles.
	path := filepath.Join(root, "versions", m.Version, "profiles.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load(m.Version); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted profiles loaded: err = %v", err)
	}
}

// TestLoadReportsChecksumBeforeParseError: the profile file is parsed
// as it is hashed, so a file the parser rejects part-way (a broken
// magic, a cut) must still be reported as a checksum mismatch, not as
// the parse error it also causes.
func TestLoadReportsChecksumBeforeParseError(t *testing.T) {
	sets, stats := fixtures(t)
	root := filepath.Join(t.TempDir(), "registry")
	reg, err := registry.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.Create(sets[0], stats[0])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "versions", m.Version, "profiles.bin")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"magic": append([]byte("XXXX"), good[4:]...),
		"cut":   good[:len(good)/2],
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Load(m.Version); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("%s: Load = %v, want a checksum mismatch", name, err)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load(m.Version); err != nil {
		t.Fatalf("restored profiles: %v", err)
	}
}

func TestActivateUnknownVersion(t *testing.T) {
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Activate("v000042"); err == nil {
		t.Fatal("activated a version that does not exist")
	}
}

// TestReopen checks registry state is fully on disk: a fresh Registry
// over the same root sees the same versions and active pointer.
func TestReopen(t *testing.T) {
	sets, stats := fixtures(t)
	root := filepath.Join(t.TempDir(), "registry")
	reg, err := registry.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.Create(sets[0], stats[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Activate(m.Version); err != nil {
		t.Fatal(err)
	}

	reg2, err := registry.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	ps, m2, err := reg2.LoadActive()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != m.Version || len(ps.Profiles) != 3 {
		t.Fatalf("reopened registry LoadActive = %s, %d profiles", m2.Version, len(ps.Profiles))
	}
}
