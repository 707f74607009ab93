package rtl

import (
	"testing"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
)

// testPipeline builds a pipeline and the functional parallel-bloom
// detector over the same small three-language profile set.
func testPipeline(t testing.TB) (*Pipeline, *core.Detector, *corpus.Corpus) {
	t.Helper()
	cfg := corpus.Config{
		Languages:       []string{"en", "fi", "es"},
		DocsPerLanguage: 12,
		WordsPerDoc:     150,
		TrainFraction:   0.3,
		Seed:            21,
	}
	corp, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := core.TrainFromTexts(core.Config{TopT: 1500, Seed: 21}, corp.TrainTextsByLanguage())
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewDetector(ps, core.WithBackend(core.BackendBloom))
	if err != nil {
		t.Fatal(err)
	}
	filters, err := ps.ParallelFilters()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(ps.Config, filters)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p, c, corp
}

func TestNewValidation(t *testing.T) {
	testPipeline(t)
	subPS, _ := core.TrainFromTexts(core.Config{TopT: 100, Subsample: 2}, map[string][][]byte{
		"en": {[]byte("enough text for a tiny profile here")},
	})
	subFilters, _ := subPS.ParallelFilters()
	if _, err := New(subPS.Config, subFilters); err == nil {
		t.Error("New accepted a subsampling classifier")
	}
}

// The RTL ground truth: pipeline counters equal the functional
// classifier's match counts for every document.
func TestPipelineMatchesFunctional(t *testing.T) {
	p, c, corp := testPipeline(t)
	for _, lang := range corp.Languages {
		for _, d := range corp.Test[lang][:3] {
			counters, _ := p.RunDocument(d.Text)
			want, _ := c.DetectCounts(nil, d.Text)
			for l := range want {
				if counters[l] != want[l] {
					t.Fatalf("%s doc %d lang %d: RTL %d != functional %d",
						lang, d.ID, l, counters[l], want[l])
				}
			}
		}
	}
}

// Latency model: a document of c characters takes ceil(c/2) input
// cycles plus Depth drain cycles.
func TestPipelineCycleCount(t *testing.T) {
	p, _, corp := testPipeline(t)
	doc := corp.Test["en"][0].Text
	_, cycles := p.RunDocument(doc)
	wantInput := (int64(len(doc)) + 1) / 2
	if cycles != wantInput+Depth {
		t.Errorf("cycles = %d, want %d input + %d drain", cycles, wantInput, Depth)
	}
}

func TestPipelineOddLengthDocument(t *testing.T) {
	p, c, _ := testPipeline(t)
	doc := []byte("seven ch") // 8 bytes
	odd := []byte("seven chr")
	countersEven, _ := p.RunDocument(doc)
	wantEven, _ := c.DetectCounts(nil, doc)
	for l := range wantEven {
		if countersEven[l] != wantEven[l] {
			t.Fatal("even-length mismatch")
		}
	}
	countersOdd, _ := p.RunDocument(odd)
	wantOdd, _ := c.DetectCounts(nil, odd)
	for l := range wantOdd {
		if countersOdd[l] != wantOdd[l] {
			t.Fatal("odd-length mismatch")
		}
	}
}

func TestPipelineShortDocuments(t *testing.T) {
	p, c, _ := testPipeline(t)
	for _, doc := range []string{"", "a", "ab", "abc", "abcd", "abcde"} {
		counters, _ := p.RunDocument([]byte(doc))
		want, _ := c.DetectCounts(nil, []byte(doc))
		for l := range want {
			if counters[l] != want[l] {
				t.Errorf("%q: RTL %v != functional %v", doc, counters, want)
			}
		}
	}
}

func TestPipelineResetBetweenDocuments(t *testing.T) {
	p, c, corp := testPipeline(t)
	docA := corp.Test["fi"][0].Text
	docB := corp.Test["es"][0].Text
	p.RunDocument(docA)
	counters, _ := p.RunDocument(docB) // RunDocument resets internally
	want, _ := c.DetectCounts(nil, docB)
	for l := range want {
		if counters[l] != want[l] {
			t.Fatal("state leaked between documents")
		}
	}
}

func TestPipelineIncrementalClocking(t *testing.T) {
	// Drive the pipeline manually one character per cycle (half rate):
	// results must still match, and cycles double.
	p, c, corp := testPipeline(t)
	doc := corp.Test["es"][0].Text[:200]
	p.Reset()
	codes := alphabet.TranslateAll(doc)
	for _, code := range codes {
		p.Clock(code, 0, 1)
	}
	p.Drain()
	want, _ := c.DetectCounts(nil, doc)
	got := p.Counters()
	for l := range want {
		if got[l] != want[l] {
			t.Fatal("half-rate clocking changed results")
		}
	}
	if p.Cycles() != int64(len(codes))+Depth {
		t.Errorf("cycles = %d, want %d", p.Cycles(), int64(len(codes))+Depth)
	}
}

func TestPipelineInvalidInputCount(t *testing.T) {
	p, _, _ := testPipeline(t)
	defer func() {
		if recover() == nil {
			t.Error("Clock with nValid=3 did not panic")
		}
	}()
	p.Clock(0, 0, 3)
}

// The dual-port constraint holds by construction: two n-grams per cycle
// issue exactly two reads to each (language, hash) RAM. A third read
// would panic inside Clock; streaming a long document proves the
// schedule never violates it.
func TestPipelineRAMPortDiscipline(t *testing.T) {
	p, _, corp := testPipeline(t)
	long := corp.Test["en"][0].Text
	p.RunDocument(long) // panics on violation
}

func BenchmarkPipelineRTL(b *testing.B) {
	p, _, corp := testPipeline(b)
	doc := corp.Test["en"][0].Text
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RunDocument(doc)
	}
}
