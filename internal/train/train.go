// Package train is the one profile trainer: the offline preprocessing
// step of the paper (§2, step 1) rebuilt for production scale; core
// only checks, stores and serves the sets it builds. A Trainer ingests
// documents incrementally — one Add call, one io.Reader, one NDJSON
// line, or one file of a directory tree at a time — and counts each
// one in the caller through ngram.Counter.AddBytes, which counts the
// n-grams ngram.Window.FeedBytes emits, the step from bytes to n-grams
// a detector's stream takes too; Texts, NDJSON and Dir run a whole
// source through one. Finalize ranks the top-t n-grams per language into a
// core.ProfileSet that depends only on the documents each language
// was given, not on their order or chunking: counting is additive, and
// the ranking breaks ties deterministically. It ranks the languages on at most GOMAXPROCS
// goroutines, each through one ngram.Ranker, a selection that sorts
// only the t winners and allocates only the profile.
//
// Peak memory is one ngram.Vocabulary shared by all languages (at
// n <= 4 a flat index of 2 bytes per possible n-gram, 2 MiB at the
// paper's n=4, widened to 4 bytes once the run has seen more than
// 65535 distinct n-grams; a map above n = 4), one 4-byte count per
// vocabulary entry per language, and per AddReader in flight one
// 64 KiB read buffer, reused across calls — never the corpus. The
// 2-byte index and the direct-lookup serving plane are one table, one
// uint16 per packed n-gram: Finalize and Abort hand it back
// (ngram.Vocabulary.Release), and the plane of the detector built
// next takes it instead of faulting in a table of its own.
//
// Counts are uint32, so one run counts at most ngram.MaxTotal n-grams
// per language, about 4 GiB of text. Add refuses the document that
// would pass that, before counting any of it; AddReader, which cannot
// know a document's length in advance, refuses the read buffer that
// would, and poisons the trainer if part of the document was counted
// already.
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

// readChunk is the AddReader read buffer, the bytes it counts at once.
const readChunk = 64 << 10

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

	readers sync.Pool // of *[readChunk]byte, one per AddReader in flight
}

// New builds a trainer for the given classifier configuration; the
// finalized ProfileSet records cfg with defaults applied.
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
	t.readers.New = func() any { return new([readChunk]byte) }
	return t, nil
}

var errClosed = errors.New("train: trainer already finalized")

// accLocked returns lang's accumulator, creating it on first use. It
// fails for an empty label and once the trainer is closed. t.mu must
// be held.
func (t *Trainer) accLocked(lang string) (*langAcc, error) {
	if lang == "" {
		return nil, errors.New("train: empty language label")
	}
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

// Add counts one whole document for lang. The trainer does not keep
// doc after Add returns.
func (t *Trainer) Add(lang string, doc []byte) error {
	w := ngram.Window{N: t.cfg.N}
	return t.count(lang, &w, doc, 1, int64(len(doc)))
}

// count counts p, the next bytes of one of lang's documents in the
// window w, and adds docs and bytes to lang's stats.
func (t *Trainer) count(lang string, w *ngram.Window, p []byte, docs int, bytes int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, err := t.accLocked(lang)
	if err != nil {
		return err
	}
	if err := a.counter.AddBytes(w, p); err != nil {
		return fmt.Errorf("train: language %q: %w", lang, err)
	}
	a.docs += docs
	a.bytes += bytes
	return nil
}

// AddReader ingests one document for lang streamed from r, never
// buffered whole: it counts each full 64 KiB read buffer, and the tail
// at the end, under the trainer lock, with the window carried across
// them. A read error, or a buffer refused for taking the language past
// ngram.MaxTotal, leaves no trace before the first buffer is counted
// and poisons the trainer after it, since counted buffers cannot be
// recalled (see Finalize). The read buffer is pooled on the trainer,
// so a warm call allocates nothing.
func (t *Trainer) AddReader(lang string, r io.Reader) error {
	w := ngram.Window{N: t.cfg.N}
	buf := t.readers.Get().(*[readChunk]byte)
	defer t.readers.Put(buf)
	var total int64
	for counted := false; ; counted = true {
		n, err := io.ReadFull(r, buf[:])
		total += int64(n)
		switch err {
		case nil:
			err = t.count(lang, &w, buf[:], 0, 0)
		case io.EOF, io.ErrUnexpectedEOF:
			// The tail, possibly empty, carries the document's stats.
			if err = t.count(lang, &w, buf[:n], 1, total); err == nil {
				return nil
			}
		default:
			err = fmt.Errorf("train: reading %s document: %w", lang, err)
		}
		if err != nil {
			t.mu.Lock()
			if counted && t.failErr == nil {
				t.failErr = err
			}
			t.mu.Unlock()
			return err
		}
	}
}

// Abort ends ingest without the ranking work of Finalize — the cheap
// shutdown for error paths — and releases the counters. Abort is
// idempotent and a no-op after Finalize.
func (t *Trainer) Abort() {
	t.mu.Lock()
	if t.vocab != nil {
		t.vocab.Release()
	}
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
// ProfileSet. All Add/AddReader/AddNDJSON/AddDir calls must have
// returned before Finalize starts (concurrent ingest is fine; ingest
// concurrent with Finalize is not). The trainer cannot be reused
// afterwards. If any document failed after part of it was counted,
// Finalize refuses to build profiles.
func (t *Trainer) Finalize() (*core.ProfileSet, Stats, error) {
	t.mu.Lock()
	accs, failErr, closed, vocab := t.accs, t.failErr, t.closed, t.vocab
	t.closed, t.vocab, t.accs = true, nil, nil
	t.mu.Unlock()
	if closed {
		return nil, Stats{}, errClosed
	}
	vocab.Release() // counting is over: the flat index goes to the serving plane
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
