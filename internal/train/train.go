// Package train is the streaming profile trainer: the offline
// preprocessing step of the paper (§2, step 1) rebuilt for production
// scale. Where core.TrainFromTexts consumes fully materialized texts,
// a Trainer ingests documents incrementally — one Add call, one
// io.Reader, one NDJSON line, or one file of a directory tree at a
// time — and counts each one in the caller through ngram.Window's
// FeedBytes, the translate-and-shift loop a core.Stream runs to feed
// n-gram blocks to the parallel-bloom kernel. Finalize ranks the top-t n-grams per
// language, producing a core.ProfileSet byte-identical to what
// core.TrainFromTexts builds from the same documents: counting is
// additive, so the order documents arrive in does not change the
// totals, and the top-t ranking breaks ties deterministically. Each
// language's ranking is a selection over its counts that sorts only
// the t winners; Finalize ranks the languages concurrently, on at most
// GOMAXPROCS goroutines, each profile into its language's slot, and
// each goroutine ranks through one ngram.Ranker, so ranking allocates
// only the profiles.
//
// Peak memory is one ngram.Vocabulary shared by all languages (at
// n <= 4 a flat index of 2 bytes per possible n-gram, 2 MiB at the
// paper's n=4, widened to 4 bytes per possible n-gram once the run has
// seen more than 65535 distinct n-grams; a map above n = 4; plus
// 4 bytes per distinct n-gram), one 4-byte count per vocabulary entry
// per language, and per AddReader in flight one read buffer and one
// n-gram batch, reused across calls — never the corpus, and nothing
// that grows with the n-gram key space per language.
//
// Counts are uint32, so one run counts at most ngram.MaxTotal n-grams
// per language, about 4 GiB of text. Add refuses the document that
// would pass that, before counting any of it; AddReader, which cannot
// know a document's length in advance, refuses the batch that would,
// and poisons the trainer if part of the document was counted already.
package train

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"bloomlang/internal/core"
	"bloomlang/internal/ngram"
)

const (
	// readChunk is the AddReader read granularity.
	readChunk = 64 << 10
	// flushGrams is the n-gram batch AddReader counts at once.
	flushGrams = 32 << 10
)

// langAcc is one language's accumulator, its counts over the trainer's
// vocabulary.
type langAcc struct {
	counter *ngram.Counter
	docs    int
	bytes   int64
}

// Trainer accumulates per-language n-gram counts from an incremental
// document stream. Add, AddReader, AddNDJSON and AddDir are safe to
// call concurrently from multiple goroutines; the counting itself is
// serialized on one lock. Finalize ends ingest and produces the
// profiles; Abort ends it without them. A Trainer is single-use.
type Trainer struct {
	cfg core.Config

	mu      sync.Mutex
	vocab   *ngram.Vocabulary // shared by every language's counter
	accs    map[string]*langAcc
	closed  bool
	failErr error // first mid-document ingest failure; poisons Finalize

	readers sync.Pool // of *readScratch, one per AddReader in flight
}

// readScratch is one AddReader's working memory: the read buffer and
// the n-gram batch.
type readScratch struct {
	buf   []byte
	grams []uint32
}

// New builds a trainer for the given classifier configuration; the
// finalized ProfileSet records cfg (with defaults applied) exactly as
// core.TrainFromTexts would.
func New(cfg core.Config) (*Trainer, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	vocab, err := ngram.NewVocabulary(cfg.N)
	if err != nil {
		return nil, err
	}
	t := &Trainer{cfg: cfg, vocab: vocab, accs: make(map[string]*langAcc)}
	t.readers.New = func() any { return &readScratch{buf: make([]byte, readChunk)} }
	return t, nil
}

// Config returns the effective training configuration.
func (t *Trainer) Config() core.Config { return t.cfg }

var errClosed = errors.New("train: trainer already finalized")

// accLocked returns lang's accumulator, creating it on first use. It
// fails once the trainer is closed. t.mu must be held.
func (t *Trainer) accLocked(lang string) (*langAcc, error) {
	if t.closed {
		return nil, errClosed
	}
	a := t.accs[lang]
	if a == nil {
		a = &langAcc{counter: t.vocab.NewCounter()}
		t.accs[lang] = a
	}
	return a, nil
}

func checkLang(lang string) error {
	if lang == "" {
		return errors.New("train: empty language label")
	}
	return nil
}

// Add counts one whole document for lang. The trainer does not keep
// doc after Add returns.
func (t *Trainer) Add(lang string, doc []byte) error {
	if err := checkLang(lang); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a, err := t.accLocked(lang)
	if err != nil {
		return err
	}
	if err := a.counter.AddText(doc); err != nil {
		return fmt.Errorf("train: language %q: %w", lang, err)
	}
	a.docs++
	a.bytes += int64(len(doc))
	return nil
}

// addGrams counts a batch of lang's n-grams and adds docs and bytes to
// its stats.
func (t *Trainer) addGrams(lang string, grams []uint32, docs int, bytes int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, err := t.accLocked(lang)
	if err != nil {
		return err
	}
	if err := a.counter.AddAll(grams); err != nil {
		return fmt.Errorf("train: language %q: %w", lang, err)
	}
	a.docs += docs
	a.bytes += bytes
	return nil
}

// AddReader ingests one document for lang streamed from r in bounded
// chunks: the document is never buffered whole. The window carries
// across reads, so chunk boundaries produce exactly the n-grams a
// contiguous read would. The n-grams are counted in batches of
// flushGrams; a read error, or a batch refused for taking the
// language past ngram.MaxTotal, leaves no trace before the first batch
// is counted and poisons the trainer after it (see Finalize). The read
// buffer and the batch are pooled on the trainer, so a warm call
// allocates nothing; concurrent calls each take their own.
func (t *Trainer) AddReader(lang string, r io.Reader) error {
	if err := checkLang(lang); err != nil {
		return err
	}
	w := ngram.Window{N: t.cfg.N}
	sc := t.readers.Get().(*readScratch)
	buf, grams := sc.buf, sc.grams[:0]
	defer func() {
		sc.grams = grams[:0]
		t.readers.Put(sc)
	}()
	var total int64
	flushed := false
	for {
		n, err := r.Read(buf)
		if n > 0 {
			total += int64(n)
			grams = w.FeedBytes(grams, buf[:n])
			if len(grams) >= flushGrams {
				if aerr := t.addGrams(lang, grams, 0, 0); aerr != nil {
					return t.fail(aerr, flushed)
				}
				grams = grams[:0]
				flushed = true
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return t.fail(fmt.Errorf("train: reading %s document: %w", lang, err), flushed)
		}
	}
	// The final (possibly empty) batch carries the document's stats.
	if err := t.addGrams(lang, grams, 1, total); err != nil {
		return t.fail(err, flushed)
	}
	return nil
}

// fail returns err, the failure of a document AddReader is ingesting.
// If part of the document was counted already, those batches cannot be
// recalled, so it poisons the whole trainer first: Finalize will refuse
// to build profiles from partial counts. Otherwise nothing of the
// document reached the counters, and the caller may skip it and keep
// training.
func (t *Trainer) fail(err error, counted bool) error {
	if counted {
		t.mu.Lock()
		if t.failErr == nil {
			t.failErr = err
		}
		t.mu.Unlock()
	}
	return err
}

// Abort ends ingest without the ranking work of Finalize — the cheap
// shutdown for error paths — and releases the counters. Abort is
// idempotent and a no-op after Finalize.
func (t *Trainer) Abort() {
	t.mu.Lock()
	t.closed, t.vocab, t.accs = true, nil, nil
	t.mu.Unlock()
}

// LangStats describes one language's ingested training data.
type LangStats struct {
	// Docs is the number of training documents ingested.
	Docs int `json:"docs"`
	// Bytes is the total raw document bytes ingested.
	Bytes int64 `json:"bytes"`
	// Grams is the total number of n-grams counted.
	Grams uint64 `json:"ngrams"`
}

// Stats summarizes a finalized training run; the registry persists it
// in the version manifest.
type Stats struct {
	// Languages maps language code to its ingest stats.
	Languages map[string]LangStats `json:"languages"`
	// Docs is the total document count across languages.
	Docs int `json:"docs"`
	// Bytes is the total raw byte count across languages.
	Bytes int64 `json:"bytes"`
	// Grams is the total n-gram count across languages.
	Grams uint64 `json:"ngrams"`
}

// Finalize ends ingest and ranks each language's top-t n-grams, the
// languages concurrently on at most GOMAXPROCS goroutines, into a
// ProfileSet identical to what core.TrainFromTexts builds from the
// same documents. All Add/AddReader/AddNDJSON/AddDir calls must have
// returned before Finalize starts (concurrent ingest is fine; ingest
// concurrent with Finalize is not). The trainer cannot be reused
// afterwards. If any document failed after part of it was counted,
// Finalize refuses to build profiles.
func (t *Trainer) Finalize() (*core.ProfileSet, Stats, error) {
	t.mu.Lock()
	accs, failErr, closed := t.accs, t.failErr, t.closed
	t.closed, t.vocab, t.accs = true, nil, nil
	t.mu.Unlock()
	if closed {
		return nil, Stats{}, errClosed
	}
	if failErr != nil {
		return nil, Stats{}, fmt.Errorf("train: a document failed mid-ingest, refusing to build profiles from partial counts: %w", failErr)
	}
	if len(accs) == 0 {
		return nil, Stats{}, errors.New("train: no training documents ingested")
	}
	langs := make([]string, 0, len(accs))
	for lang := range accs {
		langs = append(langs, lang)
	}
	sort.Strings(langs)

	ps := &core.ProfileSet{Config: t.cfg, Profiles: make([]*ngram.Profile, len(langs))}
	stats := Stats{Languages: make(map[string]LangStats, len(langs))}
	for _, lang := range langs {
		a := accs[lang]
		ls := LangStats{Docs: a.docs, Bytes: a.bytes, Grams: a.counter.Total()}
		stats.Languages[lang] = ls
		stats.Docs += ls.Docs
		stats.Bytes += ls.Bytes
		stats.Grams += ls.Grams
	}
	// Rank the languages on at most GOMAXPROCS goroutines, each into its
	// own slot and through its own Ranker: ranking only reads the
	// counters and their shared vocabulary.
	workers := min(runtime.GOMAXPROCS(0), len(langs))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			var r ngram.Ranker
			for i := w; i < len(langs); i += workers {
				ps.Profiles[i] = r.Profile(langs[i], accs[langs[i]].counter, t.cfg.TopT)
			}
		}()
	}
	wg.Wait()
	return ps, stats, nil
}
