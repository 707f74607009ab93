package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Match is one classified document: the winning language with a
// normalized confidence score and winner margin, or an explicit Unknown
// outcome when the document cannot be called confidently. It is the
// unit every Detector method returns.
type Match struct {
	// Lang is the winning language code, or "" when Unknown.
	Lang string
	// Count is the winner's raw match count — how many of the
	// document's n-grams hit the winning language's profile.
	Count int
	// NGrams is the number of n-grams tested.
	NGrams int
	// Score is the normalized confidence Count/NGrams in [0,1]: the
	// fraction of document n-grams found in the winner's profile.
	Score float64
	// Margin is the winner's normalized lead over the runner-up,
	// (bestCount − secondCount)/NGrams — the §5.1 winner margin that
	// makes the classifier robust to Bloom filter false positives. With
	// a single trained language there is no runner-up and Margin equals
	// Score.
	Margin float64
	// Unknown reports that no language was called: the document had
	// fewer n-grams than MinNGrams (an empty document has zero), or the
	// margin fell below MinMargin (an exact tie has margin 0). Count,
	// NGrams, Score and Margin still describe the would-be winner for
	// diagnostics; Lang is "".
	Unknown bool
}

// detectorOptions collects the functional-option state for NewDetector.
type detectorOptions struct {
	backend   Backend
	build     func(*ProfileSet) (Kernel, error)
	minMargin float64
	minNGrams int
}

// DetectorOption configures a Detector at construction.
type DetectorOption func(*detectorOptions)

// WithKernel makes the detector count through the Kernel build returns
// for its profile set, and report it as backend name. It is how a
// membership structure outside core serves a detector: internal/bloom
// hands over the paper's Parallel Bloom Filter this way. Without it, or
// with a nil build, a detector counts on core's exact kernel,
// BackendDirect.
func WithKernel(name Backend, build func(*ProfileSet) (Kernel, error)) DetectorOption {
	return func(o *detectorOptions) { o.backend, o.build = name, build }
}

// WithMinMargin makes Detect return Unknown when the normalized winner
// margin falls below m. The default 0 accepts everything, including
// exact ties (broken towards the lexicographically earlier language);
// any positive threshold turns ties into explicit Unknown outcomes.
func WithMinMargin(m float64) DetectorOption {
	return func(o *detectorOptions) { o.minMargin = m }
}

// WithMinNGrams makes Detect return Unknown for documents with fewer
// than n testable n-grams. The effective minimum is 1: a document with
// no n-grams at all is always Unknown.
func WithMinNGrams(n int) DetectorOption {
	return func(o *detectorOptions) { o.minNGrams = n }
}

// Detector is the single entry point for language detection: it owns
// the membership kernel, the unknown-thresholding policy, and a pool of
// reusable counting streams, so the one-document hot path allocates
// nothing after warm-up. A Detector is safe for concurrent use by any
// number of goroutines.
type Detector struct {
	cfg       Config
	backend   Backend
	langs     []string
	kernel    Kernel
	minMargin float64
	minNGrams int
	pool      sync.Pool // of *Stream; every detection path borrows one
}

// NewDetector builds a detector over trained profiles. It refuses a
// set that does not hold the rules ReadProfileSet enforces on a file.
func NewDetector(ps *ProfileSet, opts ...DetectorOption) (*Detector, error) {
	if err := ps.validate(); err != nil {
		return nil, err
	}
	var o detectorOptions
	for _, opt := range opts {
		opt(&o)
	}
	d := &Detector{
		cfg:       ps.Config.WithDefaults(),
		backend:   BackendDirect,
		langs:     ps.Languages(),
		minMargin: max(o.minMargin, 0),
		minNGrams: max(o.minNGrams, 1),
	}
	if o.build == nil {
		d.kernel = newExactKernel(d.cfg, ps)
	} else {
		var err error
		d.backend = o.backend
		if d.kernel, err = o.build(ps); err != nil {
			return nil, err
		}
	}
	d.pool.New = func() any { return &Stream{d: d} }
	return d, nil
}

// Classifier is an alias of Detector.
//
// Deprecated: use Detector. The alias stays for the frozen perfbench
// module.
type Classifier = Detector

// New builds a detector over the profile set on core's built-in
// backend, the only one it accepts.
//
// Deprecated: use NewDetector. New stays for the frozen perfbench
// module.
func New(ps *ProfileSet, b Backend) (*Detector, error) {
	if _, err := ParseBackend(string(b)); err != nil {
		return nil, err
	}
	return NewDetector(ps)
}

// Classifier returns d.
//
// Deprecated: the Detector is its own raw-count layer. The method
// stays for the frozen perfbench module.
func (d *Detector) Classifier() *Detector { return d }

// ClassifyGrams counts matches for pre-extracted n-grams: every n-gram
// is tested against every language's membership structure, the inner
// loop the hardware implements.
//
// Deprecated: count documents with DetectCounts or a Stream.
// ClassifyGrams stays for the frozen perfbench module, which times
// counting apart from extraction.
func (d *Detector) ClassifyGrams(gs []uint32) Result {
	r := Result{Counts: make([]int, len(d.langs)), NGrams: len(gs)}
	kernelCounts(d.kernel, r.Counts, gs)
	return r
}

// Languages returns the detector's language inventory in rank order;
// every counts slice uses the same order.
func (d *Detector) Languages() []string { return d.langs }

// Config returns the detector's effective configuration.
func (d *Detector) Config() Config { return d.cfg }

// Backend returns the name of the kernel the detector counts with.
func (d *Detector) Backend() Backend { return d.backend }

// MinMargin returns the unknown-thresholding margin floor.
func (d *Detector) MinMargin() float64 { return d.minMargin }

// MinNGrams returns the minimum testable n-grams for a known outcome.
func (d *Detector) MinNGrams() int { return d.minNGrams }

// Detect classifies one raw ISO-8859-1 document: alphabet translation,
// n-gram extraction, membership counting, winner selection, and
// unknown thresholding. The working memory is a pooled Stream, so a
// warm call allocates nothing.
func (d *Detector) Detect(doc []byte) Match {
	s := d.borrow(doc)
	m := s.Match()
	d.ReturnStream(s)
	return m
}

// DetectCounts is Detect plus the per-language match counts: it
// appends the counts, in Languages() order, to dst and returns the
// extended slice with the Match. With room in dst a warm call
// allocates nothing.
func (d *Detector) DetectCounts(dst []int, doc []byte) ([]int, Match) {
	s := d.borrow(doc)
	dst, m := s.AppendCounts(dst), s.Match()
	d.ReturnStream(s)
	return dst, m
}

// BorrowStream takes an empty stream from the detector's pool: counting
// only when seg is nil, segmenting under *seg (zero fields select the
// defaults) otherwise. A server borrows one per request and Resets it
// per document, so a warm request reuses every buffer. Give the stream
// back with ReturnStream.
func (d *Detector) BorrowStream(seg *SegmentConfig) (*Stream, error) {
	var cfg SegmentConfig
	if seg != nil {
		if err := seg.Validate(); err != nil {
			return nil, err
		}
		cfg = seg.WithDefaults()
	}
	s := d.pool.Get().(*Stream)
	s.configure(cfg)
	return s, nil
}

// ReturnStream gives a borrowed stream back to the detector's pool; the
// caller must not use it, or a slice it returned, afterwards.
func (d *Detector) ReturnStream(s *Stream) { d.pool.Put(s) }

// borrow takes a pooled counting stream and counts doc into it; the
// caller gives the stream back with ReturnStream.
func (d *Detector) borrow(doc []byte) *Stream {
	s, _ := d.BorrowStream(nil) // a counting stream has no config to reject
	s.Write(doc)
	return s
}

// match applies winner selection and the unknown policy to a finished
// set of per-language counters.
func (d *Detector) match(counts []int, ngrams int) Match {
	m := Match{NGrams: ngrams}
	if ngrams == 0 {
		m.Unknown = true
		return m
	}
	best, second := winners(counts)
	m.Count = counts[best]
	m.Score = float64(m.Count) / float64(ngrams)
	if second >= 0 {
		m.Margin = float64(counts[best]-counts[second]) / float64(ngrams)
	} else {
		m.Margin = m.Score
	}
	if ngrams < d.minNGrams || m.Margin < d.minMargin {
		m.Unknown = true
		return m
	}
	m.Lang = d.langs[best]
	return m
}

// Rank returns the top k languages by match count, best first; k <= 0
// (or k beyond the language count) means all. Ties order by language
// code, matching Detect's tie-break. Each entry's Margin is its
// normalized lead over the next-ranked entry (the entry's whole Score
// for the last one). Rank reports the raw ranking: the unknown policy
// applies to Detect, not to the list.
func (d *Detector) Rank(doc []byte, k int) []Match {
	s := d.borrow(doc)
	ms := d.rankCounts(s.totals, s.gramsSeen, k)
	d.ReturnStream(s)
	return ms
}

func (d *Detector) rankCounts(counts []int, ngrams, k int) []Match {
	n := len(counts)
	if k <= 0 || k > n {
		k = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Stable sort on strict descending count keeps equal-count languages
	// in index (lexicographic) order.
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })
	ms := make([]Match, k)
	for pos := 0; pos < k; pos++ {
		i := order[pos]
		m := Match{Lang: d.langs[i], Count: counts[i], NGrams: ngrams}
		if ngrams > 0 {
			m.Score = float64(counts[i]) / float64(ngrams)
			if pos+1 < n {
				m.Margin = float64(counts[i]-counts[order[pos+1]]) / float64(ngrams)
			} else {
				m.Margin = m.Score
			}
		}
		ms[pos] = m
	}
	return ms
}

// DetectBatch classifies every document on min(GOMAXPROCS, len(docs))
// goroutines, preserving input order — the document-level parallelism
// of the paper's hardware, each document counted on a pooled stream.
// Each goroutine claims the next index from one counter and writes only
// that result slot.
func (d *Detector) DetectBatch(docs [][]byte) []Match {
	out := make([]Match, len(docs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(docs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(docs) {
					return
				}
				out[i] = d.Detect(docs[i])
			}
		}()
	}
	wg.Wait()
	return out
}
