package hail

import (
	"testing"

	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ngram"
)

func miniSetup(t testing.TB) (*Classifier, *corpus.Corpus) {
	t.Helper()
	cfg := corpus.Config{
		Languages:       []string{"en", "fi", "fr", "es"},
		DocsPerLanguage: 20,
		WordsPerDoc:     200,
		TrainFraction:   0.3,
		Seed:            5,
	}
	corp, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := core.TrainFromTexts(core.Config{N: 4, TopT: 2000}, corp.TrainTextsByLanguage())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(DefaultConfig(), ps.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	return c, corp
}

func TestDefaultConfigThroughput(t *testing.T) {
	cfg := DefaultConfig()
	// Table 4: HAIL classifies at 324 MB/sec.
	got := cfg.ThroughputMBps()
	want := 81.0 * 1e6 * 4 / (1 << 20) // 309 MB (2^20)/s = 324 decimal MB/s
	if got != want {
		t.Errorf("ThroughputMBps = %v, want %v", got, want)
	}
	// In decimal MB (as the paper counts), this is 324.
	decimal := cfg.FreqMHz * 1e6 * float64(cfg.BytesPerClock()) / 1e6
	if decimal != 324 {
		t.Errorf("decimal MB/s = %v, want 324", decimal)
	}
}

func TestBytesPerClock(t *testing.T) {
	if got := DefaultConfig().BytesPerClock(); got != 4 {
		t.Errorf("BytesPerClock = %d, want 4", got)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(DefaultConfig(), nil); err == nil {
		t.Error("Build with no profiles succeeded")
	}
	cfg := DefaultConfig()
	cfg.MaxLanguages = 1
	p1 := &ngram.Profile{Language: "aa", N: 4, Grams: []uint32{1}}
	p2 := &ngram.Profile{Language: "bb", N: 4, Grams: []uint32{2}}
	if _, err := Build(cfg, []*ngram.Profile{p1, p2}); err == nil {
		t.Error("Build beyond MaxLanguages succeeded")
	}
	p3 := &ngram.Profile{Language: "cc", N: 3, Grams: []uint32{1}}
	if _, err := Build(DefaultConfig(), []*ngram.Profile{p3}); err == nil {
		t.Error("Build with mismatched n succeeded")
	}
}

func TestTableConflictResolution(t *testing.T) {
	// Gram 7 ranks 0th in language bb but 1st in aa: bb wins the entry.
	pa := &ngram.Profile{Language: "aa", N: 4, Grams: []uint32{3, 7}}
	pb := &ngram.Profile{Language: "bb", N: 4, Grams: []uint32{7, 9}}
	c, err := Build(DefaultConfig(), []*ngram.Profile{pa, pb})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.table[7]; got != 2 { // bb is index 1, stored as 2
		t.Errorf("table[7] = %d, want 2 (bb)", got)
	}
	if got := c.table[3]; got != 1 {
		t.Errorf("table[3] = %d, want 1 (aa)", got)
	}
	if got := c.table[9]; got != 2 {
		t.Errorf("table[9] = %d, want 2 (bb)", got)
	}
	if got := c.table[100]; got != 0 {
		t.Errorf("table[100] = %d, want 0 (empty)", got)
	}
}

func TestClassifyAccuracy(t *testing.T) {
	c, corp := miniSetup(t)
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
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("HAIL accuracy %.2f below 0.9", acc)
	}
}

func TestClassifySubsamples(t *testing.T) {
	c, corp := miniSetup(t)
	doc := corp.Test["en"][0].Text
	r := c.Classify(doc)
	fullGrams := len(doc) - 4 + 1
	if r.NGrams >= fullGrams {
		t.Errorf("subsampled NGrams %d not below full %d", r.NGrams, fullGrams)
	}
	if r.NGrams < fullGrams/3 {
		t.Errorf("subsampled NGrams %d below a third of full %d", r.NGrams, fullGrams)
	}
}

func TestClassifyEmpty(t *testing.T) {
	c, _ := miniSetup(t)
	r := c.Classify(nil)
	if r.Best != -1 || r.BestLanguage(c.Languages()) != "" {
		t.Error("empty document classified")
	}
}

func TestNoFalsePositives(t *testing.T) {
	// Direct lookup is exact: a document whose n-grams are all absent
	// from every profile must score zero everywhere.
	pa := &ngram.Profile{Language: "aa", N: 4, Grams: []uint32{1, 2, 3}}
	c, err := Build(DefaultConfig(), []*ngram.Profile{pa})
	if err != nil {
		t.Fatal(err)
	}
	r := c.Classify([]byte("zzzzzzzzzzzz"))
	if r.Counts[0] != 0 {
		t.Errorf("count = %d for disjoint document, want 0", r.Counts[0])
	}
}

func TestStreamReport(t *testing.T) {
	c, corp := miniSetup(t)
	docs := corp.TestDocuments("")
	rep := c.Stream(docs)
	if rep.Docs != len(docs) {
		t.Errorf("Docs = %d, want %d", rep.Docs, len(docs))
	}
	if rep.Bytes <= 0 || rep.SimTime <= 0 {
		t.Error("empty stream report")
	}
	if rep.Accuracy() < 0.9 {
		t.Errorf("streamed accuracy %.2f below 0.9", rep.Accuracy())
	}
	// Modelled throughput must sit near the architecture rate; the
	// per-document drain cost keeps it slightly below.
	mbps := rep.MBPerSec()
	arch := c.Config().ThroughputMBps()
	if mbps > arch {
		t.Errorf("modelled throughput %.0f exceeds architectural rate %.0f", mbps, arch)
	}
	if mbps < arch*0.8 {
		t.Errorf("modelled throughput %.0f more than 20%% below architectural rate %.0f", mbps, arch)
	}
}

func TestStreamEmptySet(t *testing.T) {
	c, _ := miniSetup(t)
	rep := c.Stream(nil)
	if rep.MBPerSec() != 0 || rep.Accuracy() != 0 {
		t.Error("empty set produced nonzero rates")
	}
}

func TestCapacity255Languages(t *testing.T) {
	// HAIL's selling point: up to 255 languages in one table. Build a
	// synthetic 255-language profile set (one unique gram each).
	var profiles []*ngram.Profile
	for i := 0; i < 255; i++ {
		profiles = append(profiles, &ngram.Profile{
			Language: langName(i),
			N:        4,
			Grams:    []uint32{uint32(i + 1)},
		})
	}
	c, err := Build(DefaultConfig(), profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Languages()) != 255 {
		t.Fatalf("built %d languages", len(c.Languages()))
	}
	// Entry 200 belongs to the language that owns gram 200.
	if c.table[200] == 0 {
		t.Error("entry 200 empty")
	}
}

func langName(i int) string {
	return string([]byte{'a' + byte(i/26), 'a' + byte(i%26), '0' + byte(i%10)})
}
