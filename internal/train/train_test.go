package train_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"iter"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ngram"
	"bloomlang/internal/train"
)

var (
	fixOnce sync.Once
	fixCorp *corpus.Corpus
	fixErr  error
)

func testCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	fixOnce.Do(func() {
		fixCorp, fixErr = corpus.Generate(corpus.Config{
			Languages:       []string{"en", "es", "fi", "pt"},
			DocsPerLanguage: 24,
			WordsPerDoc:     120,
			TrainFraction:   0.5,
			Seed:            7,
		})
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixCorp
}

// trainDocs yields every (lang, doc) pair of the corpus training split.
func trainDocs(corp *corpus.Corpus) iter.Seq2[string, []byte] {
	return func(yield func(string, []byte) bool) {
		for _, lang := range corp.Languages {
			for _, doc := range corp.Train[lang] {
				if !yield(lang, doc.Text) {
					return
				}
			}
		}
	}
}

// serialize renders a profile set to its canonical NGPS bytes.
func serialize(t testing.TB, ps *core.ProfileSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ps.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamedEqualsCoreTrain is the acceptance criterion: profiles
// built by the streaming trainer are byte-identical to core.Train on
// the same documents, across configs.
func TestStreamedEqualsCoreTrain(t *testing.T) {
	corp := testCorpus(t)
	for _, cfg := range []core.Config{
		{},
		{N: 3, TopT: 800},
		{N: 5, TopT: 200}, // map-backed counters
	} {
		want, err := core.TrainFromTexts(cfg, corp.TrainTextsByLanguage())
		if err != nil {
			t.Fatal(err)
		}
		tr, err := train.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for lang, doc := range trainDocs(corp) {
			if err := tr.Add(lang, doc); err != nil {
				t.Fatal(err)
			}
		}
		ps, stats, err := tr.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if got, wantBytes := serialize(t, ps), serialize(t, want); !bytes.Equal(got, wantBytes) {
			t.Errorf("cfg %+v: streamed profiles differ from core.Train (%d vs %d bytes)",
				cfg, len(got), len(wantBytes))
		}
		if stats.Docs != 4*12 {
			t.Errorf("cfg %+v: stats.Docs = %d, want %d", cfg, stats.Docs, 4*12)
		}
		for _, lang := range corp.Languages {
			ls := stats.Languages[lang]
			if ls.Docs != 12 || ls.Bytes == 0 || ls.Grams == 0 {
				t.Errorf("cfg %+v: degenerate stats for %s: %+v", cfg, lang, ls)
			}
		}
	}
}

// TestNDJSONEqualsCoreTrain streams the training split through the
// NDJSON source and checks the result against core.TrainFromTexts on
// the same documents — without the corpus ever being in the trainer's
// memory. The baseline consumes the texts as they come out of the JSON
// round-trip (NDJSON is UTF-8; raw ISO-8859-1 high bytes do not
// survive encoding), so both sides see byte-identical documents.
func TestNDJSONEqualsCoreTrain(t *testing.T) {
	corp := testCorpus(t)
	var ndjson bytes.Buffer
	texts := make(map[string][][]byte)
	for lang, doc := range trainDocs(corp) {
		line, err := json.Marshal(map[string]string{"lang": lang, "text": string(doc)})
		if err != nil {
			t.Fatal(err)
		}
		ndjson.Write(line)
		ndjson.WriteByte('\n')
		var rt struct {
			Text string `json:"text"`
		}
		if err := json.Unmarshal(line, &rt); err != nil {
			t.Fatal(err)
		}
		texts[lang] = append(texts[lang], []byte(rt.Text))
	}
	want, err := core.TrainFromTexts(core.Config{}, texts)
	if err != nil {
		t.Fatal(err)
	}
	ps, stats, err := train.NDJSON(core.Config{}, &ndjson)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, ps), serialize(t, want)) {
		t.Error("NDJSON-trained profiles differ from core.TrainFromTexts")
	}
	if stats.Docs != 4*12 || stats.Bytes == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestDirEqualsCoreTrain round-trips the corpus through the on-disk
// layout and streams it back file by file.
func TestDirEqualsCoreTrain(t *testing.T) {
	corp := testCorpus(t)
	root := t.TempDir()
	if err := corp.WriteDir(root); err != nil {
		t.Fatal(err)
	}
	want, err := core.TrainFromTexts(core.Config{}, corp.TrainTextsByLanguage())
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := train.Dir(core.Config{}, root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, ps), serialize(t, want)) {
		t.Error("directory-trained profiles differ from core.Train")
	}
}

// TestAddReaderChunksMatchAdd feeds the same document whole and in
// adversarially small chunks; n-grams must not be lost or duplicated
// at chunk boundaries.
func TestAddReaderChunksMatchAdd(t *testing.T) {
	corp := testCorpus(t)
	doc := corp.Train["es"][0].Text

	whole, err := train.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.Add("es", doc); err != nil {
		t.Fatal(err)
	}
	wantPS, wantStats, err := whole.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	chunked, err := train.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := chunked.AddReader("es", iotest.OneByteReader(bytes.NewReader(doc))); err != nil {
		t.Fatal(err)
	}
	gotPS, gotStats, err := chunked.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, gotPS), serialize(t, wantPS)) {
		t.Error("chunked AddReader profiles differ from whole-document Add")
	}
	if gotStats.Docs != wantStats.Docs || gotStats.Bytes != wantStats.Bytes || gotStats.Grams != wantStats.Grams {
		t.Errorf("chunked stats %+v, want %+v", gotStats, wantStats)
	}
	if gotStats.Docs != 1 || gotStats.Bytes != int64(len(doc)) {
		t.Errorf("chunked stats = %+v", gotStats)
	}
}

// TestConcurrentAdd hammers Add from many goroutines; under -race this
// sweeps the ingest path, and the result must still match the
// sequential baseline.
func TestConcurrentAdd(t *testing.T) {
	corp := testCorpus(t)
	want, err := core.TrainFromTexts(core.Config{}, corp.TrainTextsByLanguage())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := train.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, lang := range corp.Languages {
		wg.Add(1)
		go func(lang string) {
			defer wg.Done()
			for _, doc := range corp.Train[lang] {
				if err := tr.Add(lang, doc.Text); err != nil {
					t.Error(err)
					return
				}
			}
		}(lang)
	}
	wg.Wait()
	ps, _, err := tr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, ps), serialize(t, want)) {
		t.Error("concurrently-ingested profiles differ from core.Train")
	}
}

// TestTrainerAddZeroAllocations: Add counts in the caller into the
// trainer's own scratch, so a warm Add into a language already seen
// allocates nothing, whatever the document's length.
func TestTrainerAddZeroAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	corp := testCorpus(t)
	doc := bytes.Repeat(corp.Train["es"][0].Text, 200) // several scratch blocks
	tr, err := train.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Abort()
	if err := tr.Add("es", doc); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := tr.Add("es", doc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Add of a %d-byte document allocates %.1f times, want 0", len(doc), allocs)
	}
}

// TestTrainerAddReaderZeroAllocations: AddReader's read buffer and
// n-gram batch are pooled on the trainer, so a warm call for a language
// already seen allocates nothing — AddDir no longer pays a 64 KiB
// buffer per file.
func TestTrainerAddReaderZeroAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	doc := testCorpus(t).Train["es"][0].Text
	tr, err := train.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Abort()
	r := bytes.NewReader(doc)
	if err := tr.AddReader("es", r); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		r.Reset(doc)
		if err := tr.AddReader("es", r); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm AddReader of a %d-byte document allocates %.1f times, want 0", len(doc), allocs)
	}
}

func TestTrainerErrors(t *testing.T) {
	tr, err := train.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Add("", []byte("x")); err == nil {
		t.Error("empty language accepted")
	}
	if _, _, err := tr.Finalize(); err == nil {
		t.Error("empty trainer finalized without error")
	}
	if err := tr.Add("en", []byte("hello world")); err == nil {
		t.Error("Add after Finalize accepted")
	}
	if _, _, err := tr.Finalize(); err == nil {
		t.Error("double Finalize accepted")
	}

	if _, err := train.New(core.Config{N: 99}); err == nil {
		t.Error("invalid config accepted")
	}
}

// failingReader yields n bytes of 'a' then fails.
type failingReader struct{ n int }

func (r *failingReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, fmt.Errorf("disk on fire")
	}
	k := len(p)
	if k > r.n {
		k = r.n
	}
	for i := 0; i < k; i++ {
		p[i] = 'a'
	}
	r.n -= k
	return k, nil
}

// TestAddReaderFailureAfterFlushPoisonsTrainer: once part of a
// document has reached the accumulators, a read failure must poison
// the trainer — Finalize refuses to build profiles from partial
// counts instead of silently shipping them.
func TestAddReaderFailureAfterFlushPoisonsTrainer(t *testing.T) {
	tr, err := train.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 200 KiB forces at least one gram-batch flush before the failure.
	if err := tr.AddReader("en", &failingReader{n: 200 << 10}); err == nil {
		t.Fatal("failing reader ingested without error")
	}
	if err := tr.Add("en", []byte("the quick brown fox jumps over the lazy dog")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Finalize(); err == nil || !strings.Contains(err.Error(), "partial") {
		t.Fatalf("Finalize after partial ingest = %v, want refusal", err)
	}
}

// TestAddReaderFailureBeforeFlushIsRecoverable: a document that fails
// before anything was flushed leaves no trace, so training continues.
func TestAddReaderFailureBeforeFlushIsRecoverable(t *testing.T) {
	tr, err := train.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.AddReader("en", &failingReader{n: 100}); err == nil {
		t.Fatal("failing reader ingested without error")
	}
	if err := tr.Add("en", []byte("the quick brown fox jumps over the lazy dog")); err != nil {
		t.Fatal(err)
	}
	ps, stats, err := tr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Profiles) != 1 || stats.Docs != 1 {
		t.Fatalf("recovered trainer produced %d profiles, %d docs", len(ps.Profiles), stats.Docs)
	}
}

// TestTrainerRefusesPastMaxTotal: with a language's total preset near
// ngram.MaxTotal, Add refuses the document that would pass it, naming
// the language and counting none of it, so training goes on. AddReader
// refuses the batch that would pass it; when an earlier batch of the
// same document was counted, that poisons the trainer, and when none
// was, it does not.
func TestTrainerRefusesPastMaxTotal(t *testing.T) {
	doc := []byte("the quick brown fox jumps over the lazy dog")
	grams := uint64(len(doc) - 3) // at n = 4
	tr, err := train.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := train.PresetTotal(tr, "en", ngram.MaxTotal-grams+1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add("en", doc); err == nil || !strings.Contains(err.Error(), `"en"`) {
		t.Fatalf("Add past MaxTotal = %v, want a refusal naming en", err)
	}
	if err := tr.AddReader("en", bytes.NewReader(doc)); err == nil {
		t.Fatal("AddReader past MaxTotal succeeded")
	}
	if err := tr.Add("es", doc); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add("en", doc[:len(doc)-1]); err != nil {
		t.Fatalf("Add up to MaxTotal: %v", err)
	}
	_, stats, err := tr.Finalize()
	if err != nil {
		t.Fatalf("Finalize after refused documents: %v", err)
	}
	if en := stats.Languages["en"]; en.Docs != 1 || en.Grams != ngram.MaxTotal {
		t.Fatalf("en stats %+v, want the one document that fits, %d n-grams", en, uint64(ngram.MaxTotal))
	}

	tr, err = train.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The document is several of AddReader's 64 KiB read buffers; the
	// first fits, so the refusal comes part way through it.
	if err := train.PresetTotal(tr, "en", ngram.MaxTotal-100_000); err != nil {
		t.Fatal(err)
	}
	long := bytes.Repeat([]byte("abcdefgh "), 30_000)
	if err := tr.AddReader("en", bytes.NewReader(long)); err == nil || !strings.Contains(err.Error(), `"en"`) {
		t.Fatalf("AddReader past MaxTotal = %v, want a refusal naming en", err)
	}
	if err := tr.Add("es", doc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Finalize(); err == nil || !strings.Contains(err.Error(), "partial") {
		t.Fatalf("Finalize after a document refused mid-way = %v, want refusal", err)
	}
}

// TestAbort: the cheap error-path shutdown is idempotent, composes
// with Finalize in either order, and forecloses further ingest.
func TestAbort(t *testing.T) {
	tr, err := train.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Add("en", []byte("the quick brown fox jumps over the lazy dog")); err != nil {
		t.Fatal(err)
	}
	tr.Abort()
	tr.Abort() // idempotent
	if err := tr.Add("en", []byte("more")); err == nil {
		t.Error("Add after Abort accepted")
	}
	if _, _, err := tr.Finalize(); err == nil {
		t.Error("Finalize after Abort succeeded")
	}

	tr2, err := train.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Add("en", []byte("the quick brown fox jumps over the lazy dog")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr2.Finalize(); err != nil {
		t.Fatal(err)
	}
	tr2.Abort() // no-op after Finalize
}

// TestFinalizeRanksConcurrently: the training split relabelled
// round-robin as more languages than GOMAXPROCS, so every ranking
// goroutine ranks several, gives the same profiles as core.TrainFromTexts
// in each of 20 runs. Under -race it checks that the languages share
// their vocabulary safely while they rank.
func TestFinalizeRanksConcurrently(t *testing.T) {
	langs := 2*runtime.GOMAXPROCS(0) + 3
	corp := testCorpus(t)
	texts := map[string][][]byte{}
	i := 0
	for _, doc := range trainDocs(corp) {
		lang := fmt.Sprintf("l%02d", i%langs)
		texts[lang] = append(texts[lang], doc)
		i++
	}
	cfg := core.Config{TopT: 300}
	want, err := core.TrainFromTexts(cfg, texts)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := serialize(t, want)
	for run := range 20 {
		tr, err := train.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for lang, docs := range texts {
			for _, doc := range docs {
				if err := tr.Add(lang, doc); err != nil {
					t.Fatal(err)
				}
			}
		}
		ps, _, err := tr.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if len(ps.Profiles) != langs || !bytes.Equal(serialize(t, ps), wantBytes) {
			t.Fatalf("run %d: %d profiles differ from core.TrainFromTexts' %d", run, len(ps.Profiles), langs)
		}
	}
}

// TestTableHandoffUnderConcurrency: two trainers finalize, each
// handing its flat index back, while two goroutines build
// direct-lookup detectors, whose planes take such tables. No table may
// reach two owners: under -race a table shared by a counting
// vocabulary and a plane, or by two planes, is a data race, and in any
// build the detectors' counts, checked against a detector built
// before, go wrong.
func TestTableHandoffUnderConcurrency(t *testing.T) {
	corp := testCorpus(t)
	ps, err := core.TrainFromTexts(core.Config{}, corp.TrainTextsByLanguage())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewDetector(ps)
	if err != nil {
		t.Fatal(err)
	}
	var docs [][]byte
	for _, lang := range corp.Languages {
		docs = append(docs, corpus.Texts(corp.Test[lang])...)
	}
	want := make([][]int, len(docs))
	for i, doc := range docs {
		want[i], _ = ref.DetectCounts(nil, doc)
	}
	const rounds = 8
	errs := make(chan error, 4*rounds)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for range rounds {
				tr, err := train.New(core.Config{})
				if err != nil {
					errs <- err
					return
				}
				for lang, doc := range trainDocs(corp) {
					if err := tr.Add(lang, doc); err != nil {
						errs <- err
						return
					}
				}
				if _, _, err := tr.Finalize(); err != nil {
					errs <- err
				}
			}
		}()
		go func() {
			defer wg.Done()
			for range rounds {
				det, err := core.NewDetector(ps)
				if err != nil {
					errs <- err
					return
				}
				for i, doc := range docs {
					if got, _ := det.DetectCounts(nil, doc); !slices.Equal(got, want[i]) {
						errs <- fmt.Errorf("doc %d: counts %v, want %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// trainerLive trains docs at n-gram length n and returns the trainer's
// live heap once they are counted, between two collections, and the
// profiles it then finalizes.
func trainerLive(t *testing.T, n int, docs iter.Seq2[string, []byte]) (int64, *core.ProfileSet) {
	t.Helper()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	tr, err := train.New(core.Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	for lang, doc := range docs {
		if err := tr.Add(lang, doc); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	live := int64(ms.HeapAlloc) - int64(base)
	ps, _, err := tr.Finalize() // keeps tr alive through the measurement
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d languages at n=%d: %.2f MiB live", len(ps.Profiles), n, float64(live)/(1<<20))
	return live, ps
}

// TestTrainerMemoryScalesWithVocabulary: the fixture's training split,
// relabelled round-robin as 40 languages and counted at n = 4, keeps
// the trainer's live heap to its shared vocabulary, a 2 MiB uint16
// index while it numbers at most 65535 n-grams, and dense uint32
// counts: under 4 MiB, where one 2^20-slot table per language would
// hold 40 × 8 MiB.
func TestTrainerMemoryScalesWithVocabulary(t *testing.T) {
	const langs = 40
	corp := testCorpus(t)
	live, ps := trainerLive(t, 4, func(yield func(string, []byte) bool) {
		i := 0
		for _, doc := range trainDocs(corp) {
			if !yield(fmt.Sprintf("l%02d", i%langs), doc) {
				return
			}
			i++
		}
	})
	if len(ps.Profiles) != langs {
		t.Fatalf("trained %d profiles, want %d", len(ps.Profiles), langs)
	}
	if live >= 4<<20 {
		t.Errorf("trainer of %d languages at n=4 holds %.1f MiB live, want under 4 MiB", langs, float64(live)/(1<<20))
	}
}

// perfbenchTexts is the training split at perfbench's size: 10
// languages × 60 documents × 800 words, and its size in bytes.
func perfbenchTexts(tb testing.TB) (map[string][][]byte, int64) {
	texts := map[string][][]byte{}
	var size int64
	for _, lang := range corpus.Languages() {
		spec, err := corpus.ByCode(lang)
		if err != nil {
			tb.Fatal(err)
		}
		gen := corpus.NewGenerator(spec, 1)
		for range 60 {
			doc := gen.Document(800)
			texts[lang] = append(texts[lang], doc)
			size += int64(len(doc))
		}
	}
	return texts, size
}

// TestTrainerMemoryAtN6: at n = 6 the vocabulary is a map and every
// language keeps a uint32 count per n-gram any language has seen, so
// the perfbench-sized 10-language split, fed in language order, holds
// about 14 MiB live. This bounds it from growing; a sparse count
// layout would shrink it.
func TestTrainerMemoryAtN6(t *testing.T) {
	texts, _ := perfbenchTexts(t)
	live, _ := trainerLive(t, 6, func(yield func(string, []byte) bool) {
		for _, lang := range corpus.Languages() {
			for _, doc := range texts[lang] {
				if !yield(lang, doc) {
					return
				}
			}
		}
	})
	if live > 16<<20 {
		t.Errorf("trainer of %d languages at n=6 holds %.1f MiB live, want at most 16 MiB", len(texts), float64(live)/(1<<20))
	}
}

// BenchmarkTrainer trains at perfbench's size, streamed through Add,
// then Finalize.
func BenchmarkTrainer(b *testing.B) {
	texts, size := perfbenchTexts(b)
	b.SetBytes(size)
	b.ReportAllocs()
	for b.Loop() {
		tr, err := train.New(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for lang, docs := range texts {
			for _, doc := range docs {
				if err := tr.Add(lang, doc); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, _, err := tr.Finalize(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNDJSONErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"bad json", "{not json}\n", "line 1"},
		{"missing lang", `{"text":"hello"}` + "\n", `missing "lang"`},
	}
	for _, c := range cases {
		_, _, err := train.NDJSON(core.Config{}, strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	// "language" is accepted as an alias for "lang".
	in := `{"language":"en","text":"the quick brown fox jumps over the lazy dog"}` + "\n"
	ps, _, err := train.NDJSON(core.Config{}, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Profiles) != 1 || ps.Profiles[0].Language != "en" {
		t.Errorf("alias ingest produced %+v", ps.Profiles)
	}
}

func TestDirErrors(t *testing.T) {
	if _, _, err := train.Dir(core.Config{}, filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing directory accepted")
	}
	if _, _, err := train.Dir(core.Config{}, t.TempDir()); err == nil {
		t.Error("empty directory accepted")
	}
}

func ExampleTrainer() {
	tr, _ := train.New(core.Config{TopT: 100})
	tr.Add("en", []byte("the quick brown fox jumps over the lazy dog"))
	tr.Add("es", []byte("el veloz zorro marron salta sobre el perro perezoso"))
	ps, stats, _ := tr.Finalize()
	fmt.Println(len(ps.Profiles), "profiles from", stats.Docs, "documents")
	// Output: 2 profiles from 2 documents
}
