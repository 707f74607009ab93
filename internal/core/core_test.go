package core

import (
	"strings"
	"testing"

	"bloomlang/internal/corpus"
	"bloomlang/internal/ngram"
)

// miniCorpus generates a small 4-language corpus once per test binary.
var miniCorpus *corpus.Corpus

func getMiniCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	if miniCorpus == nil {
		cfg := corpus.Config{
			Languages:       []string{"en", "fi", "es", "pt"},
			DocsPerLanguage: 30,
			WordsPerDoc:     150,
			TrainFraction:   0.3,
			Seed:            7,
		}
		c, err := corpus.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		miniCorpus = c
	}
	return miniCorpus
}

func trainMini(t testing.TB, cfg Config) *ProfileSet {
	t.Helper()
	ps, err := trainTexts(cfg, getMiniCorpus(t).TrainTextsByLanguage())
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestLanguageNameCoversCorpus checks that the name table the serving
// layer reports from gives a real name, not the code, for every
// language the synthetic corpus generates, and passes unknown codes
// through.
func TestLanguageNameCoversCorpus(t *testing.T) {
	for _, code := range corpus.Languages() {
		if name := LanguageName(code); name == code || name == "" {
			t.Errorf("LanguageName(%q) = %q, want an English name", code, name)
		}
	}
	if LanguageName("es") != "Spanish" || LanguageName("fi") != "Finnish" {
		t.Errorf("LanguageName(es), (fi) = %q, %q", LanguageName("es"), LanguageName("fi"))
	}
	if LanguageName("zz") != "zz" {
		t.Errorf("LanguageName(zz) = %q, want passthrough", LanguageName("zz"))
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.N != 4 || cfg.TopT != 5000 || cfg.K != 4 || cfg.MBits != 16*1024 {
		t.Errorf("DefaultConfig = %+v, want the paper's §4 parameters", cfg)
	}
	if want := (Config{N: 4, TopT: 5000, K: 4, MBits: 16384, Seed: 1, Subsample: 1}); cfg != want {
		t.Errorf("DefaultConfig = %+v, want %+v", cfg, want)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{N: 9},
		{TopT: -1},
		{K: -2},
		{MBits: 1000},
		{Subsample: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: config %+v validated", i, cfg)
		}
	}
}

func TestNewValidation(t *testing.T) {
	ps := trainMini(t, Config{TopT: 200})
	for _, b := range equivBackends() {
		if _, err := NewDetector(&ProfileSet{Config: ps.Config}, withBackend(b)); err == nil {
			t.Errorf("%s: NewDetector with empty profiles succeeded", b)
		}
		// Mismatched profile n.
		mixed := &ProfileSet{Config: ps.Config, Profiles: []*ngram.Profile{{Language: "xx", N: 3, Grams: []uint32{1}}}}
		if _, err := NewDetector(mixed, withBackend(b)); err == nil {
			t.Errorf("%s: NewDetector with mismatched profile n succeeded", b)
		}
	}
	if _, err := NewDetector(ps, withBackend("classic")); err == nil {
		t.Error("NewDetector with a kernel that fails to build succeeded")
	}
}

// TestNewDetectorRefusesLanguageOrder: a detector breaks ties towards
// the earlier language of its set, so it serves only sets whose
// language codes are non-empty, unique and in increasing order, as
// ReadProfileSet demands of a file.
func TestNewDetectorRefusesLanguageOrder(t *testing.T) {
	ps := trainMini(t, Config{TopT: 200})
	en, fi := ps.Profiles[0], ps.Profiles[2] // of en, es, fi, pt
	blank := *en
	blank.Language = ""
	for _, profiles := range [][]*ngram.Profile{{fi, en, en}, {fi, en}, {&blank, fi}, {en, &blank}} {
		bad := &ProfileSet{Config: ps.Config, Profiles: profiles}
		for _, b := range equivBackends() {
			_, err := NewDetector(bad, withBackend(b))
			if err == nil || !strings.Contains(err.Error(), "increasing order") {
				t.Errorf("%s: NewDetector over languages %q: %v, want a language-order error", b, bad.Languages(), err)
			}
		}
	}
}

func TestClassifyAllBackendsAgreeOnEasyDocs(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	corp := getMiniCorpus(t)
	for _, backend := range equivBackends() {
		c, err := NewDetector(ps, withBackend(backend))
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		correct, total := 0, 0
		for _, lang := range corp.Languages {
			for _, d := range corp.Test[lang] {
				if bestLanguage(c, classify(c, d.Text)) == lang {
					correct++
				}
				total++
			}
		}
		acc := float64(correct) / float64(total)
		if acc < 0.9 {
			t.Errorf("%v: accuracy %.2f below 0.9", backend, acc)
		}
	}
}

func TestClassifyEmptyDocument(t *testing.T) {
	ps := trainMini(t, Config{TopT: 200})
	c, err := NewDetector(ps, withBackend(BackendDirect))
	if err != nil {
		t.Fatal(err)
	}
	r := classify(c, nil)
	if r.NGrams != 0 || bestLanguage(c, r) != "" {
		t.Errorf("empty doc result = %+v, want no winner", r)
	}
	if m := c.Detect(nil); !m.Unknown || m.Margin != 0 {
		t.Errorf("empty doc match = %+v, want unknown with no margin", m)
	}
}

func TestClassifyShortDocument(t *testing.T) {
	ps := trainMini(t, Config{TopT: 200})
	c, _ := NewDetector(ps, withBackend(BackendDirect))
	// Shorter than n: no n-grams.
	r := classify(c, []byte("abc"))
	if r.NGrams != 0 {
		t.Errorf("3-byte doc produced %d n-grams", r.NGrams)
	}
}

func TestBloomNeverUndercountsDirect(t *testing.T) {
	// Bloom filters have no false negatives, so for every language the
	// Bloom match count must be >= the exact direct-lookup count.
	ps := trainMini(t, Config{TopT: 1000})
	bloomC, err := NewDetector(ps, withBackend(backendBloom))
	if err != nil {
		t.Fatal(err)
	}
	directC, err := NewDetector(ps, withBackend(BackendDirect))
	if err != nil {
		t.Fatal(err)
	}
	corp := getMiniCorpus(t)
	for _, lang := range corp.Languages {
		for _, d := range corp.Test[lang][:3] {
			rb := classify(bloomC, d.Text)
			rd := classify(directC, d.Text)
			for i := range rb.Counts {
				if rb.Counts[i] < rd.Counts[i] {
					t.Fatalf("bloom count %d < direct count %d for language %s",
						rb.Counts[i], rd.Counts[i], bloomC.Languages()[i])
				}
			}
		}
	}
}

func TestClassifierDeterministicAcrossConstructions(t *testing.T) {
	ps := trainMini(t, Config{TopT: 500})
	a, _ := NewDetector(ps, withBackend(backendBloom))
	b, _ := NewDetector(ps, withBackend(backendBloom))
	doc := getMiniCorpus(t).Test["fi"][0].Text
	ra, rb := classify(a, doc), classify(b, doc)
	for i := range ra.Counts {
		if ra.Counts[i] != rb.Counts[i] {
			t.Fatalf("counts differ between identically-seeded classifiers")
		}
	}
}
