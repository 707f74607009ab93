package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bloomlang"
)

// TestDefaultBackendFollowsDaemon: classify and segment run, when
// -backend is not given, on the backend langidd serves the profiles
// on, the exact direct-lookup kernel at every n, 6-gram profile files
// included; -backend bloom still overrides.
func TestDefaultBackendFollowsDaemon(t *testing.T) {
	corp := testCorpus(t)
	for _, tc := range []struct {
		n     int
		flags []string
		want  bloomlang.Backend
	}{
		{6, nil, bloomlang.BackendDirect},
		{6, []string{"-backend", "bloom"}, bloomlang.BackendBloom},
		{4, nil, bloomlang.BackendDirect},
		{4, []string{"-backend", "bloom"}, bloomlang.BackendBloom},
	} {
		cfg := bloomlang.DefaultConfig()
		cfg.N, cfg.TopT = tc.n, 1000
		path := saveProfiles(t, cfg, corp)
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

// TestEvalBackendFollowsDaemon: eval scores the backend classify runs,
// direct-lookup unless -backend bloom, and names it in its header.
func TestEvalBackendFollowsDaemon(t *testing.T) {
	corp := testCorpus(t)
	dir := t.TempDir()
	if err := corp.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	cfg := bloomlang.DefaultConfig()
	cfg.TopT = 1000
	path := saveProfiles(t, cfg, corp)
	for _, tc := range []struct {
		flags []string
		want  bloomlang.Backend
	}{
		{nil, bloomlang.BackendDirect},
		{[]string{"-backend", "bloom"}, bloomlang.BackendBloom},
	} {
		var out bytes.Buffer
		if err := eval(append([]string{"-corpus", dir, "-profiles", path}, tc.flags...), &out); err != nil {
			t.Fatalf("%v: %v", tc.flags, err)
		}
		header, _, _ := strings.Cut(out.String(), "\n")
		if !strings.Contains(header, " on "+tc.want.String()+" ") {
			t.Errorf("%v: header %q does not name backend %s", tc.flags, header, tc.want)
		}
		if !strings.Contains(out.String(), "average 100.00%") {
			t.Errorf("%v: eval output\n%s\nwant every test document right", tc.flags, out.String())
		}
	}
}

// testCorpus is a small two-language corpus whose test documents every
// backend classifies correctly.
func testCorpus(t *testing.T) *bloomlang.Corpus {
	t.Helper()
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
	return corp
}

// saveProfiles trains corp under cfg and writes the profile file,
// returning its path.
func saveProfiles(t *testing.T, cfg bloomlang.Config, corp *bloomlang.Corpus) string {
	t.Helper()
	ps, err := bloomlang.Train(cfg, corp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "profiles.bin")
	if err := bloomlang.SaveProfiles(ps, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClassifyVerboseRanking pins the output of classify -v: the match
// line, then every language's count and score, best first, equal
// counts in language order.
func TestClassifyVerboseRanking(t *testing.T) {
	corp, err := bloomlang.GenerateCorpus(bloomlang.CorpusConfig{
		Languages:       []string{"en", "es", "fi", "pt"},
		DocsPerLanguage: 4,
		WordsPerDoc:     200,
		TrainFraction:   0.5,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := bloomlang.DefaultConfig()
	cfg.TopT = 1000
	profiles := saveProfiles(t, cfg, corp)
	dir := t.TempDir()
	var files []string
	for _, f := range []struct {
		name string
		text []byte
	}{
		{"fi.txt", corp.TestDocuments("fi")[0].Text},
		{"es.txt", []byte("el consejo adopta las medidas")},
		{"tie.txt", []byte("qqq xxx zzz")},
	} {
		path := filepath.Join(dir, f.name)
		if err := os.WriteFile(path, f.text, 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	var out bytes.Buffer
	if err := classify(append([]string{"-profiles", profiles, "-v"}, files...), &out); err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(out.String(), dir+string(filepath.Separator), "")
	want := `fi.txt: fi (Finnish), score 0.667, margin 0.435 over 664 n-grams
  fi     443  score 0.667
  es     154  score 0.232
  en     137  score 0.206
  pt     122  score 0.184
es.txt: es (Spanish), score 0.308, margin 0.115 over 26 n-grams
  es       8  score 0.308
  pt       5  score 0.192
  en       1  score 0.038
  fi       1  score 0.038
tie.txt: en (English), score 0.000, margin 0.000 over 8 n-grams
  en       0  score 0.000
  es       0  score 0.000
  fi       0  score 0.000
  pt       0  score 0.000
`
	if got != want {
		t.Errorf("classify -v printed\n%s\nwant\n%s", got, want)
	}
}

// TestClassifyFileMatchesDetect: classify -v on a file prints the
// detector's answer for the file's bytes, whatever their length: the
// match line from Detect, then every language's count from
// DetectCounts, best first, equal counts in language order. The rows
// end inside a chunk of 16 n-grams, on one, and after many.
func TestClassifyFileMatchesDetect(t *testing.T) {
	corp := testCorpus(t)
	cfg := bloomlang.DefaultConfig()
	cfg.TopT = 1000
	profiles := saveProfiles(t, cfg, corp)
	ps, err := bloomlang.LoadProfiles(profiles)
	if err != nil {
		t.Fatal(err)
	}
	det, err := bloomlang.NewDetector(ps)
	if err != nil {
		t.Fatal(err)
	}
	fi := corp.TestDocuments("fi")[0].Text
	for _, tc := range []struct {
		name string
		text []byte
	}{
		{"empty", nil},
		{"no n-gram", []byte("ab")},
		{"part of a chunk", []byte("the house")},
		{"one chunk", fi[:cfg.N-1+16]},
		{"chunks and a tail", fi[:cfg.N-1+5*16+7]},
		{"whole document", fi},
		{"latin-1", []byte("caf\xe9 fran\xe7ais avec des accents")},
	} {
		path := filepath.Join(t.TempDir(), "doc.txt")
		if err := os.WriteFile(path, tc.text, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := classify([]string{"-profiles", profiles, "-v", path}, &out); err != nil {
			t.Fatal(err)
		}
		counts, m := det.DetectCounts(nil, tc.text)
		var want strings.Builder
		if m.Unknown {
			fmt.Fprintf(&want, "%s: unknown (%d n-grams, score %.3f, margin %.3f)\n", path, m.NGrams, m.Score, m.Margin)
		} else {
			fmt.Fprintf(&want, "%s: %s (%s), score %.3f, margin %.3f over %d n-grams\n",
				path, m.Lang, bloomlang.LanguageName(m.Lang), m.Score, m.Margin, m.NGrams)
		}
		order := make([]int, len(counts))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return counts[b] - counts[a] })
		for _, i := range order {
			score := 0.0
			if m.NGrams > 0 {
				score = float64(counts[i]) / float64(m.NGrams)
			}
			fmt.Fprintf(&want, "  %-3s %6d  score %.3f\n", det.Languages()[i], counts[i], score)
		}
		if out.String() != want.String() {
			t.Errorf("%s: classify -v printed\n%s\nwant\n%s", tc.name, out.String(), want.String())
		}
	}
}
