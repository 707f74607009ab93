package bloomlang

import (
	"encoding/json"
	"os"
	"testing"
)

// goldenSegments is the committed segmentation-regression gate
// (testdata/golden_segments.json): a deterministic seeded training
// corpus, a deterministic mixed-language document set with known byte
// boundaries (the same generator cmd/corpusgen -mixed drives), the
// classifier and segmentation configurations, and the per-language
// byte-level F1 floor no backend may drop below. Everything in the
// pipeline is integer-deterministic, so a floor violation is a real
// behavioural change — hot-path work on the fused kernel can never
// silently degrade boundary quality.
type goldenSegments struct {
	Corpus  CorpusConfig       `json:"corpus"`
	Mixed   MixedCorpusConfig  `json:"mixed"`
	Config  Config             `json:"config"`
	Segment SegmentConfig      `json:"segment"`
	Floors  map[string]float64 `json:"floors"`
}

func loadGoldenSegments(t testing.TB) goldenSegments {
	t.Helper()
	data, err := os.ReadFile("testdata/golden_segments.json")
	if err != nil {
		t.Fatal(err)
	}
	var g goldenSegments
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("parsing golden segments file: %v", err)
	}
	if len(g.Floors) == 0 {
		t.Fatal("golden segments file has no floors")
	}
	return g
}

// segmentationF1 scores predicted spans against the ground-truth
// tiling, byte by byte: for each language, precision is the fraction
// of bytes predicted as that language that truly are, recall the
// fraction of true bytes recovered, and F1 their harmonic mean. Byte
// F1 penalizes both mislabelled spans and misplaced boundaries, which
// is why it gates boundary quality.
func segmentationF1(t testing.TB, det *Detector, seg SegmentConfig, docs []MixedDocument) map[string]float64 {
	t.Helper()
	tp := map[string]int{}
	fp := map[string]int{}
	fn := map[string]int{}
	for _, d := range docs {
		spans, err := det.DetectSpans(d.Text, seg)
		if err != nil {
			t.Fatal(err)
		}
		// Walk both tilings; attribute every byte once.
		truthAt := func(pos int) string {
			for _, s := range d.Segments {
				if pos >= s.Start && pos < s.End {
					return s.Lang
				}
			}
			return ""
		}
		for _, sp := range spans {
			for pos := sp.Start; pos < sp.End; pos++ {
				truth := truthAt(pos)
				switch {
				case sp.Lang == truth:
					tp[truth]++
				default:
					fn[truth]++
					if sp.Lang != "" {
						fp[sp.Lang]++
					}
				}
			}
		}
	}
	f1 := map[string]float64{}
	for lang := range tp {
		denom := float64(2*tp[lang] + fp[lang] + fn[lang])
		if denom > 0 {
			f1[lang] = float64(2*tp[lang]) / denom
		}
	}
	for lang := range fn {
		if _, ok := f1[lang]; !ok && lang != "" {
			f1[lang] = 0
		}
	}
	return f1
}

// TestGoldenSegmentationFloors evaluates every built-in backend on the
// committed mixed-document spec and fails if any language's byte-level
// segmentation F1 falls below its golden floor.
func TestGoldenSegmentationFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("golden segmentation evaluation generates and segments a corpus")
	}
	g := loadGoldenSegments(t)
	corp, err := GenerateCorpus(g.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Train(g.Config, corp)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := GenerateMixedCorpus(g.Mixed)
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
			f1 := segmentationF1(t, det, g.Segment, docs)
			if len(f1) != len(g.Floors) {
				t.Fatalf("evaluated %d languages, golden file has %d floors", len(f1), len(g.Floors))
			}
			var sum, min float64 = 0, 1
			for lang, floor := range g.Floors {
				got, ok := f1[lang]
				if !ok {
					t.Errorf("language %q in golden file was not evaluated", lang)
					continue
				}
				if got < floor {
					t.Errorf("%s segmentation F1 %.4f dropped below golden floor %.4f", lang, got, floor)
				}
				sum += got
				if got < min {
					min = got
				}
			}
			t.Logf("mean byte-F1 %.4f (min %.4f) over %d mixed documents", sum/float64(len(g.Floors)), min, len(docs))
		})
	}
}
