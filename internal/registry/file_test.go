package registry_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bloomlang/internal/registry"
)

func TestProfileSetSaveLoadFile(t *testing.T) {
	sets, _ := fixtures(t)
	path := filepath.Join(t.TempDir(), "profiles.bin")
	if err := registry.SaveFile(path, sets[0]); err != nil {
		t.Fatal(err)
	}
	got, err := registry.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sets[0]) {
		t.Errorf("file round-trip mismatch: %+v", got.Config)
	}
}

// TestSaveFileReplacesWhole: saving a smaller set over an existing
// profile file leaves exactly the new set's bytes, at mode 0644 whatever
// the old file's mode, and no temp entry beside it.
func TestSaveFileReplacesWhole(t *testing.T) {
	sets, _ := fixtures(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "profiles.bin")
	if err := registry.SaveFile(path, sets[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := registry.SaveFile(path, sets[1]); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := sets[1].WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("profile file holds %d bytes, not the %d bytes of the new set", len(got), want.Len())
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Errorf("mode %v, want 0644", info.Mode().Perm())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "profiles.bin" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only profiles.bin", names)
	}
}
