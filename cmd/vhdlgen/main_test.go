package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
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

// TestRunReadsSavedAndLegacyProfiles checks that vhdlgen reads both
// profile formats: the set file SaveFile (langid train -out, langidd
// -save) writes, generated under the file's recorded configuration,
// and a legacy bare-profile file, read under the defaults unless -k,
// -m and -seed say otherwise.
func TestRunReadsSavedAndLegacyProfiles(t *testing.T) {
	ps, err := core.TrainFromTexts(core.Config{TopT: 300, K: 6, MBits: 4 * 1024, Seed: 9}, map[string][][]byte{
		"en": {[]byte("the quick brown fox jumps over the lazy dog repeatedly and often")},
		"fi": {[]byte("nopea ruskea kettu hyppii laiskan koiran yli usein ja uudelleen")},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saved := filepath.Join(dir, "profiles.bin")
	if err := ps.SaveFile(saved); err != nil {
		t.Fatal(err)
	}
	var bare bytes.Buffer
	for _, p := range ps.Profiles {
		if _, err := p.WriteTo(&bare); err != nil {
			t.Fatal(err)
		}
	}
	legacy := filepath.Join(dir, "legacy.bin")
	if err := os.WriteFile(legacy, bare.Bytes(), 0o644); err != nil {
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

	// A legacy file records no configuration: defaults apply, and the
	// flags restore the training configuration exactly.
	if def := vhdlOf(t, "-profiles", legacy); !strings.Contains(def, "k=4, m=16384 bits") {
		t.Errorf("legacy file not generated under the default k and m:\n%s", def[:400])
	}
	if over := vhdlOf(t, "-profiles", legacy, "-k", "6", "-m", "4096", "-seed", "9"); over != got {
		t.Error("legacy file with -k/-m/-seed differs from the saved file's listing")
	}

	// A flag that is given overrides the recorded configuration.
	if over := vhdlOf(t, "-profiles", saved, "-k", "2"); !strings.Contains(over, "k=2, m=4096 bits") {
		t.Errorf("-k 2 did not override the file's k:\n%s", over[:400])
	}
}
