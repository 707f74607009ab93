package bloomlang

import (
	"encoding/json"
	"os"
	"testing"
)

// goldenAccuracy is the committed accuracy-regression gate
// (testdata/golden_accuracy.json): a deterministic seeded corpus spec
// (the same generator cmd/corpusgen drives), the classifier
// configuration, and the per-language accuracy floor no backend may
// drop below. Corpus generation, training, and match counting are all
// integer-deterministic, so a floor violation is a real behavioural
// change — speed work can never silently trade away classification
// quality.
type goldenAccuracy struct {
	Corpus CorpusConfig       `json:"corpus"`
	Config Config             `json:"config"`
	Floors map[string]float64 `json:"floors"`
}

func loadGolden(t testing.TB) goldenAccuracy {
	t.Helper()
	data, err := os.ReadFile("testdata/golden_accuracy.json")
	if err != nil {
		t.Fatal(err)
	}
	var g goldenAccuracy
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("parsing golden accuracy file: %v", err)
	}
	if len(g.Floors) == 0 {
		t.Fatal("golden accuracy file has no floors")
	}
	return g
}

// TestGoldenAccuracyFloors evaluates every membership backend
// on the committed corpus spec and fails if any language's accuracy
// falls below its golden floor.
func TestGoldenAccuracyFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("golden accuracy evaluation generates and classifies a corpus")
	}
	g := loadGolden(t)
	corp, err := GenerateCorpus(g.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Train(g.Config, corp)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Backends() {
		backend, err := ParseBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			det, err := NewDetector(ps, WithBackend(backend))
			if err != nil {
				t.Fatalf("backend %s unavailable under golden config: %v", name, err)
			}
			ev := Evaluate(det, corp)
			if len(ev.PerLanguage) != len(g.Floors) {
				t.Fatalf("evaluated %d languages, golden file has %d floors", len(ev.PerLanguage), len(g.Floors))
			}
			for lang, floor := range g.Floors {
				acc, ok := ev.PerLanguage[lang]
				if !ok {
					t.Errorf("language %q in golden file was not evaluated", lang)
					continue
				}
				if acc < floor {
					t.Errorf("%s accuracy %.4f dropped below golden floor %.4f", lang, acc, floor)
				}
			}
			t.Logf("average accuracy %.4f (min %.4f, max %.4f)", ev.Average, ev.Min, ev.Max)
		})
	}
}
