package bloomlang

import (
	"sync"
	"testing"
)

// Shared fixtures, built once per test binary.
var (
	fixtureOnce sync.Once
	fixCorpus   *Corpus
	fixProfiles *ProfileSet
)

func fixtures(t testing.TB) (*Corpus, *ProfileSet) {
	t.Helper()
	fixtureOnce.Do(func() {
		corp, err := GenerateCorpus(CorpusConfig{
			DocsPerLanguage: 60,
			WordsPerDoc:     300,
			TrainFraction:   0.2,
			Seed:            17,
		})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := Train(DefaultConfig(), corp)
		if err != nil {
			t.Fatal(err)
		}
		fixCorpus, fixProfiles = corp, ps
	})
	return fixCorpus, fixProfiles
}

func TestPublicAPIEndToEnd(t *testing.T) {
	corp, ps := fixtures(t)
	if len(ps.Languages()) != 10 {
		t.Fatalf("trained %d languages, want 10", len(ps.Languages()))
	}
	for _, backend := range []Backend{BackendBloom, BackendDirect} {
		det, err := NewDetector(ps, WithBackend(backend))
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		ev := Evaluate(det, corp)
		if ev.Average < 0.9 {
			t.Errorf("%v: accuracy %.3f below 0.9", backend, ev.Average)
		}
	}
}

// TestDetectorFacade exercises the re-exported Detector surface: the
// functional options, backend parsing, and agreement with the winner
// of the raw DetectCounts counts on confidently-decided documents.
func TestDetectorFacade(t *testing.T) {
	corp, ps := fixtures(t)
	be, err := ParseBackend("bloom")
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(ps,
		WithBackend(be),
		WithWorkers(4),
		WithMinMargin(0.001),
		WithMinNGrams(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := det.Backend().String(); got != "parallel-bloom" {
		t.Errorf("backend = %q", got)
	}
	docs := corp.TestDocuments("")[:40]
	matches := det.DetectBatch(DocumentTexts(docs))
	decided := 0
	for i, d := range docs {
		counts, m := det.DetectCounts(nil, d.Text)
		want, lead := countsWinner(det.Languages(), counts, m.NGrams)
		if lead == 0 {
			continue
		}
		if matches[i].Unknown {
			continue
		}
		decided++
		if matches[i].Lang != want {
			t.Errorf("doc %d: detector %q, raw counts %q", i, matches[i].Lang, want)
		}
	}
	if decided == 0 {
		t.Error("no confidently decided documents in the sample")
	}
}

// countsWinner is the raw-count winner of a DetectCounts row: the
// language with the highest count, ties to the lower index, and its
// lead over the runner-up; "" for a document with no n-grams.
func countsWinner(langs []string, counts []int, ngrams int) (lang string, lead int) {
	if ngrams == 0 {
		return "", 0
	}
	best := 0
	for i, n := range counts {
		if n > counts[best] {
			best = i
		}
	}
	lead = counts[best]
	for i, n := range counts {
		if i != best {
			lead = min(lead, counts[best]-n)
		}
	}
	return langs[best], lead
}

func TestLanguageHelpers(t *testing.T) {
	if len(Languages()) != 10 {
		t.Errorf("Languages() = %v", Languages())
	}
	if LanguageName("cs") != "Czech" {
		t.Errorf("LanguageName(cs) = %q", LanguageName("cs"))
	}
}

func TestReadCorpusDirRoundTrip(t *testing.T) {
	corp, _ := fixtures(t)
	dir := t.TempDir()
	if err := corp.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Languages) != len(corp.Languages) {
		t.Errorf("reloaded %d languages, want %d", len(back.Languages), len(corp.Languages))
	}
}
