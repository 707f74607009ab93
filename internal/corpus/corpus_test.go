package corpus

import (
	"bytes"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestLanguagesListsAllTen(t *testing.T) {
	langs := Languages()
	want := []string{"cs", "da", "en", "es", "et", "fi", "fr", "pt", "sk", "sv"}
	if len(langs) != len(want) {
		t.Fatalf("Languages() = %v, want %v", langs, want)
	}
	for i := range want {
		if langs[i] != want[i] {
			t.Errorf("Languages()[%d] = %q, want %q", i, langs[i], want[i])
		}
	}
}

func TestByCode(t *testing.T) {
	s, err := ByCode("es")
	if err != nil {
		t.Fatal(err)
	}
	if s.Code != "es" {
		t.Errorf("es Code = %q", s.Code)
	}
	if _, err := ByCode("xx"); err == nil {
		t.Error("ByCode(xx) succeeded")
	}
}

func TestSpecsWellFormed(t *testing.T) {
	for _, code := range Languages() {
		s, _ := ByCode(code)
		if len(s.Words) < 100 {
			t.Errorf("%s: only %d vocabulary words, want >= 100", code, len(s.Words))
		}
		if len(s.Suffixes) == 0 {
			t.Errorf("%s: no suffixes", code)
		}
		if s.SuffixRate <= 0 || s.SuffixRate >= 1 {
			t.Errorf("%s: suffix rate %v out of (0,1)", code, s.SuffixRate)
		}
		seen := map[string]bool{}
		for _, w := range s.Words {
			if len(w) == 0 {
				t.Errorf("%s: empty vocabulary word", code)
			}
			if seen[string(w)] {
				t.Errorf("%s: duplicate vocabulary word %q", code, w)
			}
			seen[string(w)] = true
			for _, b := range w {
				// Every byte must be a letter the alphabet module maps to
				// a letter code (ISO-8859-1 lower-case or accented).
				if b < 0x80 && !(b >= 'a' && b <= 'z') {
					t.Errorf("%s: word %q contains non-letter ASCII byte %#x", code, w, b)
				}
			}
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	spec, _ := ByCode("fr")
	a := NewGenerator(spec, 42).Document(100)
	b := NewGenerator(spec, 42).Document(100)
	if !bytes.Equal(a, b) {
		t.Error("same seed generated different documents")
	}
	c := NewGenerator(spec, 43).Document(100)
	if bytes.Equal(a, c) {
		t.Error("different seeds generated identical documents")
	}
}

func TestGeneratorDocumentShape(t *testing.T) {
	spec, _ := ByCode("en")
	doc := NewGenerator(spec, 7).Document(200)
	if len(doc) == 0 {
		t.Fatal("empty document")
	}
	if doc[len(doc)-1] != '\n' {
		t.Error("document does not end with newline")
	}
	words := bytes.Fields(doc)
	// Log-normal length jitter: the bulk of documents lands within a
	// factor of a few of the target.
	if len(words) < 20 || len(words) > 1200 {
		t.Errorf("document has %d fields, want within a few x of 200", len(words))
	}
	if !bytes.Contains(doc, []byte(".")) {
		t.Error("document has no sentence breaks")
	}
}

func TestGeneratorTinyDocument(t *testing.T) {
	spec, _ := ByCode("en")
	doc := NewGenerator(spec, 7).Document(0)
	if len(doc) == 0 {
		t.Error("Document(0) produced no text, want at least one word")
	}
}

func TestGeneratorLanguagesDiffer(t *testing.T) {
	// Documents in different languages must have visibly different
	// 4-gram inventories; this is the property classification rests on.
	esDoc := NewGenerator(mustSpec(t, "es"), 1).Document(500)
	fiDoc := NewGenerator(mustSpec(t, "fi"), 1).Document(500)
	esSet := gramSet(esDoc)
	fiSet := gramSet(fiDoc)
	inter, union := 0, len(fiSet)
	for g := range esSet {
		if fiSet[g] {
			inter++
		} else {
			union++
		}
	}
	j := float64(inter) / float64(union)
	if j > 0.5 {
		t.Errorf("es/fi 4-gram Jaccard similarity %.2f too high; languages indistinguishable", j)
	}
}

func TestRelatedLanguagesOverlapMore(t *testing.T) {
	// es↔pt must overlap more than es↔fi: that asymmetry produces the
	// paper's observed confusion pattern.
	es := gramSet(NewGenerator(mustSpec(t, "es"), 1).Document(2000))
	pt := gramSet(NewGenerator(mustSpec(t, "pt"), 1).Document(2000))
	fi := gramSet(NewGenerator(mustSpec(t, "fi"), 1).Document(2000))
	esPt := jaccard(es, pt)
	esFi := jaccard(es, fi)
	if esPt <= esFi {
		t.Errorf("Jaccard(es,pt)=%.3f not greater than Jaccard(es,fi)=%.3f", esPt, esFi)
	}
}

func mustSpec(t *testing.T, code string) *Spec {
	t.Helper()
	s, err := ByCode(code)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func gramSet(text []byte) map[uint32]bool {
	set := map[uint32]bool{}
	var window uint32
	filled := 0
	for _, b := range text {
		c := translate(b)
		window = (window<<5 | uint32(c)) & 0xFFFFF
		if filled < 3 {
			filled++
			continue
		}
		set[window] = true
	}
	return set
}

// translate is a local mirror of alphabet.Translate to keep this
// package's tests free of the dependency direction question; it only
// needs to agree on case folding for ASCII.
func translate(b byte) uint8 {
	switch {
	case b >= 'A' && b <= 'Z':
		return b - 'A' + 1
	case b >= 'a' && b <= 'z':
		return b - 'a' + 1
	case b >= 0xC0 && b < 0xFF:
		return 1 // crude accent bucket; fine for overlap measurement
	}
	return 0
}

func jaccard(a, b map[uint32]bool) float64 {
	inter := 0
	for g := range a {
		if b[g] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func TestGenerateCorpus(t *testing.T) {
	cfg := TestConfig()
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Languages) != 10 {
		t.Fatalf("corpus has %d languages, want 10", len(c.Languages))
	}
	for _, lang := range c.Languages {
		nTrain := len(c.Train[lang])
		nTest := len(c.Test[lang])
		if nTrain+nTest != cfg.DocsPerLanguage {
			t.Errorf("%s: %d+%d docs, want %d", lang, nTrain, nTest, cfg.DocsPerLanguage)
		}
		if nTrain != 10 { // 25% of 40
			t.Errorf("%s: %d training docs, want 10", lang, nTrain)
		}
		for _, d := range c.Train[lang] {
			if d.Language != lang {
				t.Errorf("train doc labelled %q under %q", d.Language, lang)
			}
			if len(d.Text) == 0 {
				t.Errorf("%s: empty training document %d", lang, d.ID)
			}
		}
	}
}

func TestGenerateDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := TestConfig()
	cfg.DocsPerLanguage = 8
	cfg.Languages = []string{"en", "fi"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, lang := range a.Languages {
		for i := range a.Test[lang] {
			if !bytes.Equal(a.Test[lang][i].Text, b.Test[lang][i].Text) {
				t.Fatalf("%s test doc %d differs between GOMAXPROCS 1 and 8", lang, i)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := TestConfig()
	cfg.Languages = []string{"xx"}
	if _, err := Generate(cfg); err == nil {
		t.Error("Generate with unknown language succeeded")
	}
	cfg = TestConfig()
	cfg.DocsPerLanguage = 1 // the minimum one train doc leaves no test docs
	if _, err := Generate(cfg); err == nil {
		t.Error("Generate with no test docs succeeded")
	}
	cfg = TestConfig()
	cfg.Languages = []string{"en", "fi", "en"}
	if _, err := Generate(cfg); err == nil || !strings.Contains(err.Error(), `"en"`) {
		t.Errorf("Generate with a repeated language: err = %v, want one naming \"en\"", err)
	}
}

// TestGenerateSortsLanguages: Corpus.Languages is sorted whatever
// order Config.Languages lists them in, so a generated corpus
// interleaves its test documents as the same corpus read back from
// disk does.
func TestGenerateSortsLanguages(t *testing.T) {
	cfg := TestConfig()
	cfg.Languages = []string{"fi", "en"}
	cfg.DocsPerLanguage = 6
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.Languages, []string{"en", "fi"}) {
		t.Fatalf("Languages = %v, want [en fi]", c.Languages)
	}
	root := filepath.Join(t.TempDir(), "corpus")
	if err := c.WriteDir(root); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	got, want := c.TestDocuments(""), back.TestDocuments("")
	if len(got) != len(want) {
		t.Fatalf("generated corpus has %d test documents, read back %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Language != want[i].Language || !bytes.Equal(got[i].Text, want[i].Text) {
			t.Fatalf("test document %d: generated a %s document, read back another %s one", i, got[i].Language, want[i].Language)
		}
	}
}

func TestTestDocumentsAllInterleaves(t *testing.T) {
	cfg := TestConfig()
	cfg.Languages = []string{"en", "fr"}
	cfg.DocsPerLanguage = 8
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := c.TestDocuments("")
	if len(all) != len(c.Test["en"])+len(c.Test["fr"]) {
		t.Fatalf("All split has %d docs", len(all))
	}
	// Round-robin: first two docs must be one of each language.
	if all[0].Language == all[1].Language {
		t.Errorf("interleaving broken: first two docs both %q", all[0].Language)
	}
}

func TestSizes(t *testing.T) {
	cfg := TestConfig()
	cfg.Languages = []string{"en"}
	cfg.DocsPerLanguage = 8
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, d := range c.Test["en"] {
		want += int64(len(d.Text))
	}
	if got := c.TestSize("en"); got != want {
		t.Errorf("TestSize = %d, want %d", got, want)
	}
	if got := c.TestSize(""); got != want {
		t.Errorf("TestSize(all) = %d, want %d", got, want)
	}
	if c.TrainSize() <= 0 {
		t.Error("TrainSize not positive")
	}
}

func TestWriteReadDirRoundTrip(t *testing.T) {
	cfg := TestConfig()
	cfg.Languages = []string{"da", "sv"}
	cfg.DocsPerLanguage = 6
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(t.TempDir(), "corpus")
	if err := c.WriteDir(root); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Languages) != 2 {
		t.Fatalf("reloaded %d languages, want 2", len(back.Languages))
	}
	// Every document keeps its language, ID and text, test IDs
	// (numbered after the training ones) included.
	for _, lang := range back.Languages {
		for split, docs := range map[string][2][]Document{
			"train": {c.Train[lang], back.Train[lang]},
			"test":  {c.Test[lang], back.Test[lang]},
		} {
			want, got := docs[0], docs[1]
			if len(got) != len(want) {
				t.Fatalf("%s: reloaded %d %s docs, want %d", lang, len(got), split, len(want))
			}
			for i := range want {
				if got[i].Language != want[i].Language || got[i].ID != want[i].ID || !bytes.Equal(got[i].Text, want[i].Text) {
					t.Errorf("%s %s doc %d: reloaded %s/%d, want %s/%d (texts equal: %v)", lang, split, i,
						got[i].Language, got[i].ID, want[i].Language, want[i].ID, bytes.Equal(got[i].Text, want[i].Text))
				}
			}
		}
	}
}

func TestReadDirErrors(t *testing.T) {
	if _, err := ReadDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("ReadDir of missing directory succeeded")
	}
	empty := t.TempDir()
	if _, err := ReadDir(empty); err == nil {
		t.Error("ReadDir of empty directory succeeded")
	}
}

func TestDocSeedSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for id := 0; id < 1000; id++ {
		s := docSeed(1, "en", id)
		if seen[s] {
			t.Fatalf("docSeed collision at id %d", id)
		}
		seen[s] = true
	}
	if docSeed(1, "en", 0) == docSeed(1, "fr", 0) {
		t.Error("docSeed ignores language")
	}
	if docSeed(1, "en", 0) == docSeed(2, "en", 0) {
		t.Error("docSeed ignores corpus seed")
	}
}

func BenchmarkGenerateDocument1300Words(b *testing.B) {
	spec, _ := ByCode("en")
	g := NewGenerator(spec, 1)
	b.ReportAllocs()
	var bytesTotal int64
	for i := 0; i < b.N; i++ {
		doc := g.Document(1300)
		bytesTotal += int64(len(doc))
	}
	b.SetBytes(bytesTotal / int64(b.N))
}
