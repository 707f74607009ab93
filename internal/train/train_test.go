package train_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"iter"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
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
// built by the streaming sharded trainer are byte-identical to
// core.Train on the same documents, across shard counts and configs.
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
		wantBytes := serialize(t, want)
		for _, shards := range []int{1, 2, 4} {
			tr, err := train.New(cfg, train.WithShards(shards))
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
			if got := serialize(t, ps); !bytes.Equal(got, wantBytes) {
				t.Errorf("cfg %+v shards=%d: streamed profiles differ from core.Train (%d vs %d bytes)",
					cfg, shards, len(got), len(wantBytes))
			}
			if stats.Docs != 4*12 {
				t.Errorf("shards=%d: stats.Docs = %d, want %d", shards, stats.Docs, 4*12)
			}
			for _, lang := range corp.Languages {
				ls := stats.Languages[lang]
				if ls.Docs != 12 || ls.Bytes == 0 || ls.Grams == 0 {
					t.Errorf("shards=%d: degenerate stats for %s: %+v", shards, lang, ls)
				}
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
	ps, stats, err := train.NDJSON(core.Config{}, &ndjson, train.WithShards(3))
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

	whole, err := train.New(core.Config{}, train.WithShards(1))
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

	chunked, err := train.New(core.Config{}, train.WithShards(1))
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
// sweeps the ingest path, and the merged result must still match the
// sequential baseline.
func TestConcurrentAdd(t *testing.T) {
	corp := testCorpus(t)
	want, err := core.TrainFromTexts(core.Config{}, corp.TrainTextsByLanguage())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := train.New(core.Config{}, train.WithShards(4))
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

func TestTrainerErrors(t *testing.T) {
	tr, err := train.New(core.Config{}, train.WithShards(1))
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
	tr, err := train.New(core.Config{}, train.WithShards(1))
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
	tr, err := train.New(core.Config{}, train.WithShards(1))
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

// TestAbort: the cheap error-path shutdown is idempotent, composes
// with Finalize in either order, and forecloses further ingest.
func TestAbort(t *testing.T) {
	tr, err := train.New(core.Config{}, train.WithShards(2))
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

	tr2, err := train.New(core.Config{}, train.WithShards(1))
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

func TestNDJSONErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"bad json", "{not json}\n", "line 1"},
		{"missing lang", `{"text":"hello"}` + "\n", `missing "lang"`},
	}
	for _, c := range cases {
		_, _, err := train.NDJSON(core.Config{}, strings.NewReader(c.in), train.WithShards(1))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
	// "language" is accepted as an alias for "lang".
	in := `{"language":"en","text":"the quick brown fox jumps over the lazy dog"}` + "\n"
	ps, _, err := train.NDJSON(core.Config{}, strings.NewReader(in), train.WithShards(1))
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

func TestShardsDefaultAndOption(t *testing.T) {
	tr, err := train.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Shards() < 1 || tr.Shards() > 4 {
		t.Errorf("default shards = %d, want 1..4", tr.Shards())
	}
	if _, _, err := tr.Finalize(); err == nil {
		t.Error("empty trainer finalized without error")
	}
	tr2, err := train.New(core.Config{}, train.WithShards(7))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Shards() != 7 {
		t.Errorf("shards = %d, want 7", tr2.Shards())
	}
	tr2.Finalize()
}

func ExampleTrainer() {
	tr, _ := train.New(core.Config{TopT: 100}, train.WithShards(2))
	tr.Add("en", []byte("the quick brown fox jumps over the lazy dog"))
	tr.Add("es", []byte("el veloz zorro marron salta sobre el perro perezoso"))
	ps, stats, _ := tr.Finalize()
	fmt.Println(len(ps.Profiles), "profiles from", stats.Docs, "documents")
	// Output: 2 profiles from 2 documents
}
