// Package train is the streaming, sharded profile trainer: the offline
// preprocessing step of the paper (§2, step 1) rebuilt for production
// scale. Where core.TrainFromTexts consumes fully materialized texts,
// a Trainer ingests documents incrementally — one Add call, one
// io.Reader, one NDJSON line, or one file of a directory tree at a
// time — and fans the n-gram counting across sharded, mergeable
// accumulators so ingest parallelism never contends on a shared
// counter. Finalize merges the shards and ranks the top-t n-grams per
// language, producing a core.ProfileSet byte-identical to what
// core.TrainFromTexts builds from the same documents: counting is additive, so
// any partition of the stream across shards merges back to the exact
// single-counter totals, and the top-t ranking breaks ties
// deterministically.
//
// Peak memory is bounded by the accumulators (one counter per
// language per shard that saw it, 8 MiB each at the paper's n=4), the
// job queue (a few documents), and one document at a time per source —
// never the corpus.
package train

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/core"
	"bloomlang/internal/ngram"
)

const (
	// readChunk is the AddReader read granularity.
	readChunk = 64 << 10
	// flushGrams is the n-gram batch size the streaming sources hand to
	// a shard in one job (a 128 KiB buffer).
	flushGrams = 32 << 10
	// maxShards caps the default shard count: each shard lazily holds
	// one counter per language it sees (8 MiB at n<=4), so unbounded
	// GOMAXPROCS would trade too much memory for ingest parallelism.
	maxShards = 4
)

// Option configures a Trainer at construction.
type Option func(*options)

type options struct {
	shards int
}

// WithShards sets the number of accumulator shards (and worker
// goroutines); n <= 0 means min(GOMAXPROCS, 4). More shards buy ingest
// parallelism at the cost of one counter per language per shard.
func WithShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// langAcc is one shard's accumulator for one language.
type langAcc struct {
	counter *ngram.Counter
	docs    int
	bytes   int64
}

// shard owns the accumulators one worker goroutine writes; nothing
// else touches them until Finalize's merge, after the worker exited.
type shard struct {
	accs map[string]*langAcc
}

func (s *shard) acc(lang string, n int) *langAcc {
	a := s.accs[lang]
	if a == nil {
		c, err := ngram.NewCounter(n)
		if err != nil {
			// n was validated at construction; this cannot happen.
			panic(err)
		}
		a = &langAcc{counter: c}
		s.accs[lang] = a
	}
	return a
}

// job is one unit of ingest work: a whole document to extract, or a
// pre-extracted n-gram batch from a streaming source. docs and bytes
// carry the document-count and byte-count deltas for the stats.
type job struct {
	lang  string
	text  []byte
	grams []uint32
	docs  int
	bytes int64
}

// Trainer accumulates per-language n-gram counts from an incremental
// document stream. Add, AddReader, AddNDJSON and AddDir are safe to
// call concurrently from multiple goroutines; Finalize ends ingest and
// produces the profiles. A Trainer is single-use and must end in
// Finalize (or Abort on error paths) — its shard workers run until
// one of the two is called.
type Trainer struct {
	cfg    core.Config
	proto  ngram.Extractor // copied by value per document
	shards []*shard
	jobs   chan job
	wg     sync.WaitGroup
	bufs   sync.Pool // of []uint32 gram batches

	mu     sync.RWMutex
	closed bool

	failMu  sync.Mutex
	failErr error // first mid-document ingest failure; poisons Finalize
}

// New builds a trainer for the given classifier configuration; the
// finalized ProfileSet records cfg (with defaults applied) exactly as
// core.TrainFromTexts would.
func New(cfg core.Config, opts ...Option) (*Trainer, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.shards <= 0 {
		o.shards = runtime.GOMAXPROCS(0)
		if o.shards > maxShards {
			o.shards = maxShards
		}
	}
	e, err := ngram.NewExtractor(cfg.N)
	if err != nil {
		return nil, err
	}
	t := &Trainer{
		cfg:   cfg,
		proto: *e,
		jobs:  make(chan job, 2*o.shards),
	}
	t.bufs.New = func() any { return make([]uint32, 0, flushGrams) }
	for i := 0; i < o.shards; i++ {
		s := &shard{accs: make(map[string]*langAcc)}
		t.shards = append(t.shards, s)
		t.wg.Add(1)
		go t.run(s)
	}
	return t, nil
}

// Config returns the effective training configuration.
func (t *Trainer) Config() core.Config { return t.cfg }

// Shards returns the number of accumulator shards.
func (t *Trainer) Shards() int { return len(t.shards) }

// run is one shard's worker loop: it drains the shared job queue into
// the shard's own accumulators, extracting n-grams for whole-document
// jobs with reusable scratch. No lock is ever taken on the hot path —
// each shard's accumulators are private until Finalize.
func (t *Trainer) run(s *shard) {
	defer t.wg.Done()
	e := t.proto
	var codes []alphabet.Code
	var grams []uint32
	for j := range t.jobs {
		a := s.acc(j.lang, t.cfg.N)
		if j.text != nil {
			e.Reset()
			if cap(codes) < len(j.text) {
				codes = make([]alphabet.Code, len(j.text))
			}
			codes = codes[:len(j.text)]
			alphabet.TranslateInto(codes, j.text)
			grams = e.Feed(grams[:0], codes)
			a.counter.AddAll(grams)
		}
		if j.grams != nil {
			a.counter.AddAll(j.grams)
			t.bufs.Put(j.grams[:0])
		}
		a.docs += j.docs
		a.bytes += j.bytes
	}
}

// send enqueues a job, failing after Finalize. The read lock is held
// across the channel send so Finalize cannot close the queue under an
// in-flight sender.
func (t *Trainer) send(j job) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return errors.New("train: trainer already finalized")
	}
	t.jobs <- j
	return nil
}

func checkLang(lang string) error {
	if lang == "" {
		return errors.New("train: empty language label")
	}
	return nil
}

// Add ingests one whole document for lang. The trainer takes ownership
// of doc: the caller must not modify it afterwards.
func (t *Trainer) Add(lang string, doc []byte) error {
	if err := checkLang(lang); err != nil {
		return err
	}
	return t.send(job{lang: lang, text: doc, docs: 1, bytes: int64(len(doc))})
}

// AddReader ingests one document for lang streamed from r in bounded
// chunks: the document is never buffered whole. The sliding-window
// extractor runs in the caller, so chunk boundaries produce exactly
// the n-grams a contiguous read would.
func (t *Trainer) AddReader(lang string, r io.Reader) error {
	if err := checkLang(lang); err != nil {
		return err
	}
	e := t.proto
	e.Reset()
	buf := make([]byte, readChunk)
	codes := make([]alphabet.Code, readChunk)
	grams := t.bufs.Get().([]uint32)
	var total int64
	flushed := false
	for {
		n, err := r.Read(buf)
		if n > 0 {
			total += int64(n)
			codes = codes[:n]
			alphabet.TranslateInto(codes, buf[:n])
			grams = e.Feed(grams, codes)
			if len(grams) >= flushGrams {
				if serr := t.send(job{lang: lang, grams: grams}); serr != nil {
					if flushed {
						// Earlier batches of this document are already
						// counted; mark the trainer poisoned like the
						// read-error path below.
						return t.fail(serr)
					}
					return serr
				}
				grams = t.bufs.Get().([]uint32)
				flushed = true
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.bufs.Put(grams[:0])
			rerr := fmt.Errorf("train: reading %s document: %w", lang, err)
			if !flushed {
				// Nothing of this document reached the accumulators;
				// the caller may skip it and keep training.
				return rerr
			}
			// Batches already flushed cannot be recalled from the
			// accumulators, so the whole trainer is poisoned: Finalize
			// will refuse to build profiles from partial counts.
			return t.fail(rerr)
		}
	}
	// The final (possibly empty) batch carries the document's stats.
	return t.send(job{lang: lang, grams: grams, docs: 1, bytes: total})
}

// fail records the first mid-document failure and returns err.
func (t *Trainer) fail(err error) error {
	t.failMu.Lock()
	if t.failErr == nil {
		t.failErr = err
	}
	t.failMu.Unlock()
	return err
}

// Abort ends ingest and stops the shard workers without the merge and
// ranking work of Finalize — the cheap shutdown for error paths.
// Abort is idempotent and a no-op after Finalize. Every Trainer must
// end in exactly one Finalize or at least one Abort; a trainer
// abandoned without either leaks its worker goroutines and
// accumulator memory.
func (t *Trainer) Abort() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()
	close(t.jobs)
	t.wg.Wait()
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

// Finalize ends ingest, merges the shards, and ranks each language's
// top-t n-grams into a ProfileSet identical to what core.TrainFromTexts
// builds from the same documents. All Add/AddReader/AddNDJSON/AddDir calls
// must have returned before Finalize starts (concurrent ingest is
// fine; ingest concurrent with Finalize is not). The trainer cannot
// be reused afterwards. If any document failed after part of it
// reached the accumulators, Finalize refuses to build profiles.
func (t *Trainer) Finalize() (*core.ProfileSet, Stats, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, Stats{}, errors.New("train: trainer already finalized")
	}
	t.closed = true
	t.mu.Unlock()
	close(t.jobs)
	t.wg.Wait()

	t.failMu.Lock()
	failErr := t.failErr
	t.failMu.Unlock()
	if failErr != nil {
		return nil, Stats{}, fmt.Errorf("train: a document failed mid-ingest, refusing to build profiles from partial counts: %w", failErr)
	}

	merged := make(map[string]*langAcc)
	for _, s := range t.shards {
		for lang, a := range s.accs {
			m := merged[lang]
			if m == nil {
				merged[lang] = a
				continue
			}
			if err := m.counter.Merge(a.counter); err != nil {
				return nil, Stats{}, err
			}
			m.docs += a.docs
			m.bytes += a.bytes
		}
	}
	if len(merged) == 0 {
		return nil, Stats{}, errors.New("train: no training documents ingested")
	}
	langs := make([]string, 0, len(merged))
	for lang := range merged {
		langs = append(langs, lang)
	}
	sort.Strings(langs)

	ps := &core.ProfileSet{Config: t.cfg}
	stats := Stats{Languages: make(map[string]LangStats, len(langs))}
	for _, lang := range langs {
		a := merged[lang]
		ps.Profiles = append(ps.Profiles, ngram.BuildProfile(lang, a.counter, t.cfg.TopT))
		ls := LangStats{Docs: a.docs, Bytes: a.bytes, Grams: a.counter.Total()}
		stats.Languages[lang] = ls
		stats.Docs += ls.Docs
		stats.Bytes += ls.Bytes
		stats.Grams += ls.Grams
	}
	return ps, stats, nil
}
