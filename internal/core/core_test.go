package core

import (
	"math/rand"
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
	ps, err := TrainFromTexts(cfg, getMiniCorpus(t).TrainTextsByLanguage())
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

func TestConfigExpectedFalsePositiveRate(t *testing.T) {
	cfg := DefaultConfig()
	// Table 1 row 1: five per thousand.
	f := cfg.ExpectedFalsePositiveRate()
	if f < 0.004 || f > 0.006 {
		t.Errorf("expected fp rate = %v, want about 0.005", f)
	}
}

func TestTrainProducesSortedProfiles(t *testing.T) {
	ps := trainMini(t, Config{TopT: 500})
	langs := ps.Languages()
	want := []string{"en", "es", "fi", "pt"}
	if len(langs) != len(want) {
		t.Fatalf("trained languages %v, want %v", langs, want)
	}
	for i := range want {
		if langs[i] != want[i] {
			t.Errorf("language %d = %q, want %q", i, langs[i], want[i])
		}
	}
	for _, p := range ps.Profiles {
		if p.Size() == 0 {
			t.Errorf("%s: empty profile", p.Language)
		}
		if p.Size() > 500 {
			t.Errorf("%s: profile size %d exceeds TopT", p.Language, p.Size())
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := TrainFromTexts(DefaultConfig(), nil); err == nil {
		t.Error("TrainFromTexts with no languages succeeded")
	}
	if _, err := TrainFromTexts(DefaultConfig(), map[string][][]byte{"en": nil}); err == nil {
		t.Error("TrainFromTexts with empty language succeeded")
	}
	bad := Config{MBits: 1000}
	if _, err := TrainFromTexts(bad, map[string][][]byte{"en": {[]byte("hello world")}}); err == nil {
		t.Error("TrainFromTexts with invalid config succeeded")
	}
}

func TestBackendString(t *testing.T) {
	if BackendBloom.String() != "parallel-bloom" ||
		BackendDirect.String() != "direct-lookup" {
		t.Error("backend names wrong")
	}
	if !strings.Contains(Backend(9).String(), "9") {
		t.Error("unknown backend String not diagnostic")
	}
}

func TestNewValidation(t *testing.T) {
	ps := trainMini(t, Config{TopT: 200})
	if _, err := New(&ProfileSet{Config: ps.Config}, BackendBloom); err == nil {
		t.Error("New with empty profiles succeeded")
	}
	if _, err := New(ps, Backend(42)); err == nil {
		t.Error("New with unknown backend succeeded")
	}
	// Mismatched profile n.
	mixed := &ProfileSet{Config: ps.Config, Profiles: []*ngram.Profile{{Language: "xx", N: 3, Grams: []uint32{1}}}}
	if _, err := New(mixed, BackendBloom); err == nil {
		t.Error("New with mismatched profile n succeeded")
	}
}

func TestClassifyAllBackendsAgreeOnEasyDocs(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	corp := getMiniCorpus(t)
	for _, backend := range []Backend{BackendBloom, BackendDirect} {
		c, err := New(ps, backend)
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		correct, total := 0, 0
		for _, lang := range corp.Languages {
			for _, d := range corp.Test[lang] {
				r := c.Classify(d.Text)
				if r.BestLanguage(c.Languages()) == lang {
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
	c, err := New(ps, BackendDirect)
	if err != nil {
		t.Fatal(err)
	}
	r := c.Classify(nil)
	if r.Best != -1 || r.Second != -1 || r.NGrams != 0 {
		t.Errorf("empty doc result = %+v, want no winner", r)
	}
	if r.BestLanguage(c.Languages()) != "" {
		t.Error("empty doc has a best language")
	}
	if r.Margin() != 0 {
		t.Error("empty doc has nonzero margin")
	}
}

func TestClassifyShortDocument(t *testing.T) {
	ps := trainMini(t, Config{TopT: 200})
	c, _ := New(ps, BackendDirect)
	// Shorter than n: no n-grams.
	r := c.Classify([]byte("abc"))
	if r.NGrams != 0 {
		t.Errorf("3-byte doc produced %d n-grams", r.NGrams)
	}
}

func TestBloomNeverUndercountsDirect(t *testing.T) {
	// Bloom filters have no false negatives, so for every language the
	// Bloom match count must be >= the exact direct-lookup count.
	ps := trainMini(t, Config{TopT: 1000})
	bloomC, err := New(ps, BackendBloom)
	if err != nil {
		t.Fatal(err)
	}
	directC, err := New(ps, BackendDirect)
	if err != nil {
		t.Fatal(err)
	}
	corp := getMiniCorpus(t)
	for _, lang := range corp.Languages {
		for _, d := range corp.Test[lang][:3] {
			rb := bloomC.Classify(d.Text)
			rd := directC.Classify(d.Text)
			for i := range rb.Counts {
				if rb.Counts[i] < rd.Counts[i] {
					t.Fatalf("bloom count %d < direct count %d for language %s",
						rb.Counts[i], rd.Counts[i], bloomC.Languages()[i])
				}
			}
		}
	}
}

func TestSubsampleReducesNGrams(t *testing.T) {
	cfg := Config{TopT: 500, Subsample: 2}
	ps := trainMini(t, cfg)
	c, err := New(ps, BackendDirect)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(trainMini(t, Config{TopT: 500}), BackendDirect)
	if err != nil {
		t.Fatal(err)
	}
	doc := getMiniCorpus(t).Test["en"][0].Text
	rSub := c.Classify(doc)
	rFull := full.Classify(doc)
	if rSub.NGrams >= rFull.NGrams {
		t.Errorf("subsampled %d n-grams >= full %d", rSub.NGrams, rFull.NGrams)
	}
	// Still classifies correctly: subsampling keeps satisfactory
	// accuracy (§5.2).
	if rSub.BestLanguage(c.Languages()) != "en" {
		t.Error("subsampled classification wrong on easy document")
	}
}

func TestResultMarginAndWinners(t *testing.T) {
	r := Result{Counts: []int{5, 9, 3}, NGrams: 10}
	r.selectWinners()
	if r.Best != 1 || r.Second != 0 {
		t.Errorf("winners = %d,%d want 1,0", r.Best, r.Second)
	}
	if r.Margin() != 4 {
		t.Errorf("margin = %d, want 4", r.Margin())
	}
	// Tie breaks to the lower index.
	r2 := Result{Counts: []int{7, 7}, NGrams: 5}
	r2.selectWinners()
	if r2.Best != 0 || r2.Second != 1 {
		t.Errorf("tie winners = %d,%d want 0,1", r2.Best, r2.Second)
	}
}

// TestFilterAccessor pins the filters the hardware models build: each
// language's ParallelFilters entry answers Test exactly as the
// parallel-bloom kernel scores that language, on member and non-member
// n-grams alike.
func TestFilterAccessor(t *testing.T) {
	ps := trainMini(t, Config{TopT: 200})
	filters, err := ps.ParallelFilters()
	if err != nil {
		t.Fatal(err)
	}
	if len(filters) != len(ps.Profiles) {
		t.Fatalf("%d filters for %d languages", len(filters), len(ps.Profiles))
	}
	c, err := New(ps, BackendBloom)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var grams []uint32
	for _, p := range ps.Profiles {
		grams = append(grams, p.Grams...)
	}
	for i := 0; i < 5000; i++ {
		grams = append(grams, rng.Uint32()&(1<<ngram.Bits(ps.Config.N)-1))
	}
	hits := 0
	counts := make([]int, len(ps.Profiles))
	for _, g := range grams {
		clear(counts)
		c.kernel.AccumulateInto(counts, []uint32{g})
		for l, f := range filters {
			if got := f.Test(g); got != (counts[l] == 1) {
				t.Fatalf("language %d gram %#x: filter Test = %v, kernel count %d", l, g, got, counts[l])
			} else if got {
				hits++
			}
		}
	}
	if hits < len(grams)-5000 {
		t.Errorf("only %d hits over %d member n-grams", hits, len(grams)-5000)
	}
}

func TestClassifierDeterministicAcrossConstructions(t *testing.T) {
	ps := trainMini(t, Config{TopT: 500})
	a, _ := New(ps, BackendBloom)
	b, _ := New(ps, BackendBloom)
	doc := getMiniCorpus(t).Test["fi"][0].Text
	ra, rb := a.Classify(doc), b.Classify(doc)
	for i := range ra.Counts {
		if ra.Counts[i] != rb.Counts[i] {
			t.Fatalf("counts differ between identically-seeded classifiers")
		}
	}
}
