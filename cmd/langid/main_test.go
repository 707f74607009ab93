package main

import (
	"flag"
	"path/filepath"
	"testing"

	"bloomlang"
)

// TestDefaultBackendFollowsDaemon: classify and segment run, when
// -backend is not given, on the backend langidd serves the profiles
// on, so a 6-gram profile file (too wide for the direct table)
// classifies under default flags; -backend still overrides.
func TestDefaultBackendFollowsDaemon(t *testing.T) {
	corp, err := bloomlang.GenerateCorpus(bloomlang.CorpusConfig{
		Languages:       []string{"en", "fi"},
		DocsPerLanguage: 10,
		WordsPerDoc:     300,
		TrainFraction:   0.5,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n     int
		flags []string
		want  bloomlang.Backend
	}{
		{6, nil, bloomlang.BackendBloom},
		{4, nil, bloomlang.BackendDirect},
		{4, []string{"-backend", "bloom"}, bloomlang.BackendBloom},
	} {
		cfg := bloomlang.DefaultConfig()
		cfg.N, cfg.TopT = tc.n, 1000
		ps, err := bloomlang.Train(cfg, corp)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "profiles.bin")
		if err := bloomlang.SaveProfiles(ps, path); err != nil {
			t.Fatal(err)
		}
		fs := flag.NewFlagSet("classify", flag.ContinueOnError)
		load := detectorFlags(fs)
		if err := fs.Parse(append([]string{"-profiles", path}, tc.flags...)); err != nil {
			t.Fatal(err)
		}
		det, err := load()
		if err != nil {
			t.Fatalf("n=%d %v: %v", tc.n, tc.flags, err)
		}
		if det.Backend() != tc.want {
			t.Errorf("n=%d %v: backend %v, want %v", tc.n, tc.flags, det.Backend(), tc.want)
		}
		doc := corp.TestDocuments("fi")[0]
		if m := det.Detect(doc.Text); m.Lang != "fi" {
			t.Errorf("n=%d %v: a Finnish document detected as %q", tc.n, tc.flags, m.Lang)
		}
	}
}
