package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/registry"
	"bloomlang/internal/train"
	"bloomlang/internal/vhdl"
)

// vhdlOf runs the command with -out - and returns the listing.
func vhdlOf(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(args, "-out", "-"), &out); err != nil {
		t.Fatalf("vhdlgen %v: %v", args, err)
	}
	return out.String()
}

// TestRunReadsSavedProfiles checks that vhdlgen generates a profile
// file (langid train -out) under the file's recorded configuration,
// that -k, -m and -seed override it only when given, and that a bare
// concatenation of profiles, the format before profile files carried a
// configuration, is refused.
func TestRunReadsSavedProfiles(t *testing.T) {
	ps, _, err := train.Texts(core.Config{TopT: 300, K: 6, MBits: 4 * 1024, Seed: 9}, map[string][][]byte{
		"en": {[]byte("the quick brown fox jumps over the lazy dog repeatedly and often")},
		"fi": {[]byte("nopea ruskea kettu hyppii laiskan koiran yli usein ja uudelleen")},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saved := filepath.Join(dir, "profiles.bin")
	if err := registry.SaveFile(saved, ps); err != nil {
		t.Fatal(err)
	}
	// The bare records are the saved file's bytes after its header:
	// magic, version, config length, config JSON and profile count.
	set, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	bare := set[4+1+4+binary.LittleEndian.Uint32(set[5:9])+4:]
	if !bytes.HasPrefix(bare, []byte("NGPF")) {
		t.Fatalf("saved file's records start with %q, want the NGPF magic", bare[:4])
	}
	legacy := filepath.Join(dir, "legacy.bin")
	if err := os.WriteFile(legacy, bare, 0o644); err != nil {
		t.Fatal(err)
	}

	// The saved file generates the hardware of the software serving it.
	filters, err := bloom.ParallelFilters(ps)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := vhdl.Generate(&want, ps.Config, ps.Languages(), filters); err != nil {
		t.Fatal(err)
	}
	got := vhdlOf(t, "-profiles", saved)
	if got != want.String() {
		t.Error("VHDL from the saved profile file differs from the file's own configuration")
	}
	if !strings.Contains(got, "k=6, m=4096 bits") {
		t.Errorf("saved file not generated under its recorded k and m:\n%s", got[:400])
	}

	// A flag that is given overrides the recorded configuration.
	if over := vhdlOf(t, "-profiles", saved, "-k", "2"); !strings.Contains(over, "k=2, m=4096 bits") {
		t.Errorf("-k 2 did not override the file's k:\n%s", over[:400])
	}

	// A bare-profile file records no configuration and is refused,
	// flags or not.
	var out bytes.Buffer
	if err := run([]string{"-profiles", legacy, "-k", "6", "-m", "4096", "-seed", "9", "-out", "-"}, &out); !errors.Is(err, core.ErrCorruptProfiles) {
		t.Errorf("bare-profile file: err = %v, want ErrCorruptProfiles", err)
	}
	if out.Len() != 0 {
		t.Errorf("bare-profile file produced %d bytes of VHDL", out.Len())
	}
}
