package core

// Mixed-language segmentation: instead of one label per document, the
// detector labels contiguous single-language regions — quoted replies,
// code-switched chat, bilingual pages — the traffic shapes a production
// detector meets that the paper's whole-document classifier (§2) cannot
// answer with a single language.
//
// Segmentation is a mode of Stream, the one counting stream every
// detection path uses, so it reuses the backend's counting pass
// unchanged and runs it exactly once per document. The byte stream is
// cut where each stride of n-grams completes, and each piece goes
// straight from bytes to counts through the backend's Kernel.Count,
// which scores every language per n-gram, into the open row of a ring
// of Window/Stride rows; a chunk that spans writes is a row filled in
// parts, with no chunk buffer. A sliding window of Window n-grams is
// then the rolling sum of the ring — adding the newest chunk row and
// subtracting the oldest — so per-window scoring costs O(L) per stride
// regardless of window size, and no n-gram is ever re-extracted or
// re-hashed for a second window. Window arg-max decisions pass through
// hysteresis (a new language must win Hysteresis consecutive windows
// before a boundary is emitted) and adjacent same-language windows
// merge into Spans.

import (
	"fmt"
	"io"
	"unsafe"
)

// Span is one contiguous single-language region of a segmented
// document: the half-open byte range [Start, End), the language called
// for it, and the mean windowed confidence behind the call. Spans
// returned for one document always tile [0, len(doc)) with no gaps or
// overlaps.
type Span struct {
	// Start is the first byte of the span.
	Start int
	// End is the byte after the last byte of the span.
	End int
	// Lang is the span's language code, or "" when Unknown.
	Lang string
	// Score is the mean normalized window score over the span's
	// windows: the fraction of window n-grams found in the span
	// language's profile, averaged across the windows that voted for
	// this span.
	Score float64
	// Margin is the mean normalized lead of the span's language over
	// the runner-up across the span's windows — the §5.1 winner margin,
	// windowed.
	Margin float64
	// Unknown reports that no language cleared the detector's
	// confidence thresholds for this region; Lang is "".
	Unknown bool
}

// Segmentation defaults: a 64-n-gram window hopping by a quarter
// window, with a two-window hysteresis before a boundary is believed.
const (
	// DefaultSegmentWindow is the default sliding-window length in
	// n-grams. At the paper's n=4 a 64-gram window is roughly ten words
	// of context — short enough to localize a language switch inside a
	// sentence, long enough that the winner margin dominates Bloom
	// false-positive noise.
	DefaultSegmentWindow = 64
	// DefaultSegmentHysteresis is how many consecutive windows a new
	// language must win before a boundary is emitted.
	DefaultSegmentHysteresis = 2
)

// SegmentConfig carries the sliding-window segmentation knobs. The
// zero value selects the defaults.
type SegmentConfig struct {
	// Window is the sliding-window length in n-grams (default 64).
	Window int
	// Stride is the window hop in n-grams; it must divide Window.
	// Default Window/4. Smaller strides localize boundaries more finely
	// at proportionally more window decisions (the counting work is
	// unchanged: every n-gram is still hashed exactly once).
	Stride int
	// Hysteresis is the number of consecutive windows a new language
	// must win before a boundary is emitted (default 2). Raising it
	// suppresses fragmentation on noisy mixed text at the cost of
	// missing genuine segments shorter than Hysteresis windows.
	Hysteresis int
}

// WithDefaults returns the configuration with zero fields replaced by
// the package defaults — the effective configuration segmentation runs
// under.
func (c SegmentConfig) WithDefaults() SegmentConfig {
	if c.Window == 0 {
		c.Window = DefaultSegmentWindow
	}
	if c.Stride == 0 {
		// The default hop is a quarter window, nudged down to the
		// nearest divisor so any Window validates out of the box.
		s := c.Window / 4
		if s < 1 {
			s = 1
		}
		for c.Window%s != 0 {
			s--
		}
		c.Stride = s
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = DefaultSegmentHysteresis
	}
	return c
}

// Validate reports configuration errors early; it checks the
// defaults-applied form, so partially-zero configurations validate the
// way they will run.
func (c SegmentConfig) Validate() error {
	cfg := c.WithDefaults()
	if cfg.Window < 1 {
		return fmt.Errorf("core: segment window %d must be positive", cfg.Window)
	}
	if cfg.Stride < 1 || cfg.Stride > cfg.Window {
		return fmt.Errorf("core: segment stride %d out of range [1,%d]", cfg.Stride, cfg.Window)
	}
	if cfg.Window%cfg.Stride != 0 {
		return fmt.Errorf("core: segment stride %d must divide window %d (the window is a whole number of ring chunks)", cfg.Stride, cfg.Window)
	}
	if cfg.Hysteresis < 1 {
		return fmt.Errorf("core: segment hysteresis %d must be >= 1", cfg.Hysteresis)
	}
	return nil
}

func resolveSegmentConfig(cfg SegmentConfig) (SegmentConfig, error) {
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg.WithDefaults(), nil
}

// DetectSpans segments one document into contiguous single-language
// spans under the detector's confidence policy. The zero SegmentConfig
// selects the defaults. The returned spans tile [0, len(doc)) exactly;
// an empty document yields no spans, and a document too short for even
// one n-gram yields a single Unknown span.
func (d *Detector) DetectSpans(doc []byte, cfg SegmentConfig) ([]Span, error) {
	return d.AppendSpans(nil, doc, cfg)
}

// AppendSpans is DetectSpans appending into a caller-owned slice: with
// a reused dst (and a warm detector) the whole segmentation pass
// allocates nothing, matching the Detect hot-path discipline.
func (d *Detector) AppendSpans(dst []Span, doc []byte, cfg SegmentConfig) ([]Span, error) {
	s, err := d.borrowSpans(cfg)
	if err != nil {
		return dst, err
	}
	s.Write(doc)
	dst = append(dst, s.Finish()...)
	d.pool.Put(s)
	return dst, nil
}

// DetectSpansReader segments a document streamed from r with bounded
// memory: no window ever re-reads earlier bytes, so only the ring of
// chunk counters and the n-gram register are retained.
func (d *Detector) DetectSpansReader(r io.Reader, cfg SegmentConfig) ([]Span, error) {
	s, err := d.borrowSpans(cfg)
	if err != nil {
		return nil, err
	}
	defer d.pool.Put(s)
	if _, err := io.Copy(s, r); err != nil {
		return nil, err
	}
	return append([]Span(nil), s.Finish()...), nil
}

// borrowSpans checks the configuration and takes a pooled stream with
// windowing on, so the one-shot paths reuse all segmentation buffers
// across calls.
func (d *Detector) borrowSpans(cfg SegmentConfig) (*Stream, error) {
	resolved, err := resolveSegmentConfig(cfg)
	if err != nil {
		return nil, err
	}
	s := d.pool.Get().(*Stream)
	s.configure(resolved)
	return s, nil
}

// unknownLabel marks a window (and the spans merged from it) whose
// winner did not clear the detector's confidence thresholds.
const unknownLabel = -1

// segRun accumulates one in-progress span: its label, where it starts
// in the n-gram stream, and the window-decision sums its Score and
// Margin average over.
type segRun struct {
	label     int // language index, or unknownLabel
	startGram int
	scoreSum  float64
	marginSum float64
	windows   int
}

func (r *segRun) absorb(o segRun) {
	r.windows += o.windows
	r.scoreSum += o.scoreSum
	r.marginSum += o.marginSum
}

// Stream counts one document incrementally with bounded memory: bytes
// arrive in arbitrary chunks via Write or WriteString, n-grams are
// counted as they complete, and Match reports the decision over
// everything written so far — the software mirror of the hardware
// datapath, which consumes the DMA stream burst by burst and never
// buffers whole documents (§3.3). Every write goes straight from bytes
// to counts through the backend's Kernel.Count, with the n-gram
// register carried in the stream's Window, so no code or n-gram buffer
// sits between the stages. Reset starts the next document, the
// End-of-Document boundary. Every detection path counts through a
// Stream: Detect and the batch workers borrow pooled ones.
//
// A stream from NewStream counts each write whole into the document
// totals. A stream from NewSpanStream also segments: each write is cut
// at the bytes that complete a stride of n-grams, and each piece is
// counted straight into the open row of the window ring, so a chunk
// that spans writes is simply a row filled in parts. Finalized spans
// are available from Spans as boundaries are confirmed, and Finish
// returns the complete tiling — identical output for identical bytes,
// any chunking. Either way every n-gram is counted exactly once, and
// Match and AppendCounts give the whole-document answer. A Stream is
// not safe for concurrent use; create one per goroutine.
type Stream struct {
	d   *Detector
	cfg SegmentConfig // resolved; the zero value turns windowing off
	w   Window

	rows  int // ring rows = Window/Stride; 0 without windowing
	langs int

	ring   []int // rows × langs per-chunk match counts
	open   []int // the ring row of the chunk in progress
	win    []int // rolling window counts (sum of the completed rows)
	totals []int // whole-document counts over completed chunks
	tmp    []int // totals with the open row folded in

	bytesSeen int
	gramsSeen int
	fill      int // n-grams counted into the open row
	chunks    int // completed chunks
	windows   int // completed window decisions

	started   bool
	cur       segRun
	flip      segRun
	flipStart int // window index where the pending flip began
	hasFlip   bool

	spans []Span
	done  bool
}

// NewStream starts an empty document stream on the detector, counting
// without segmentation. Its Window is a value copy of the classifier's
// prototype, so streams are independent of each other and of the
// one-shot paths.
func (d *Detector) NewStream() *Stream {
	s := &Stream{d: d}
	s.configure(SegmentConfig{})
	return s
}

// NewSpanStream starts an empty segmenting stream on the detector. The
// zero SegmentConfig selects the defaults.
func (d *Detector) NewSpanStream(cfg SegmentConfig) (*Stream, error) {
	resolved, err := resolveSegmentConfig(cfg)
	if err != nil {
		return nil, err
	}
	s := &Stream{d: d}
	s.configure(resolved)
	return s, nil
}

// configure (re)arms the stream for a new document under cfg — a
// resolved geometry, or the zero value for whole-document counting —
// growing buffers only when the geometry outgrew what a previous use
// left.
func (s *Stream) configure(cfg SegmentConfig) {
	s.cfg = cfg
	s.langs = len(s.d.clf.langs)
	s.w = s.d.clf.window
	if cap(s.totals) < s.langs {
		s.totals = make([]int, s.langs)
	}
	s.totals = s.totals[:s.langs]
	clear(s.totals)
	s.bytesSeen, s.gramsSeen, s.fill, s.chunks, s.windows = 0, 0, 0, 0, 0
	s.started, s.hasFlip, s.done = false, false, false
	s.cur, s.flip = segRun{}, segRun{}
	s.spans = s.spans[:0]
	s.rows = 0
	if cfg.Window == 0 {
		return
	}
	s.rows = cfg.Window / cfg.Stride
	if n := s.rows * s.langs; cap(s.ring) < n {
		s.ring = make([]int, n)
	} else {
		s.ring = s.ring[:n]
	}
	s.open = s.ring[:s.langs]
	clear(s.open)
	if cap(s.win) < s.langs {
		s.win = make([]int, s.langs)
	}
	s.win = s.win[:s.langs]
	clear(s.win)
}

// Reset prepares the stream for a new document under the same
// configuration.
func (s *Stream) Reset() { s.configure(s.cfg) }

// Write feeds the next chunk of the document. It fails only on a
// stream already closed by Finish; the signature satisfies io.Writer.
func (s *Stream) Write(p []byte) (int, error) {
	if s.done {
		return 0, errStreamFinished
	}
	s.count(p)
	return len(p), nil
}

// WriteString is Write for string chunks without the []byte copy —
// Stream is an io.StringWriter, so io.WriteString counts JSON-decoded
// documents allocation-free. Kernels only read the bytes they count,
// so viewing the string's bytes in place is safe.
func (s *Stream) WriteString(p string) (int, error) {
	return s.Write(unsafe.Slice(unsafe.StringData(p), len(p)))
}

var errStreamFinished = fmt.Errorf("core: Stream written after Finish (Reset starts a new document)")

// count is the one counting step. Without windowing the write takes one
// Kernel.Count straight into the totals, so a whole document reaches
// the kernel in one call. With windowing the write is cut where each
// stride of n-grams completes, and each piece is counted into the open
// ring row. The bytes are counted before any chunk completes: a
// boundary confirmed inside this write starts within these bytes, and
// gramByte clamps against the running total.
func (s *Stream) count(p []byte) {
	s.bytesSeen += len(p)
	kernel := s.d.clf.kernel
	if s.rows == 0 {
		s.gramsSeen += kernel.Count(s.totals, &s.w, p)
		return
	}
	for len(p) > 0 {
		n := min(s.w.BytesFor(s.cfg.Stride-s.fill), len(p))
		grams := kernel.Count(s.open, &s.w, p[:n])
		p = p[n:]
		s.gramsSeen += grams
		if s.fill += grams; s.fill == s.cfg.Stride {
			s.completeChunk()
		}
	}
}

// completeChunk closes the open ring row — its stride of n-grams has
// taken its one counting pass — and rolls the window sum forward: the
// fresh row enters the window, and the next open row, the oldest,
// leaves it and is cleared.
func (s *Stream) completeChunk() {
	for i, v := range s.open {
		s.win[i] += v
		s.totals[i] += v
	}
	s.fill = 0
	s.chunks++
	if s.chunks >= s.rows {
		s.windowDone()
	}
	s.open = s.ring[(s.chunks%s.rows)*s.langs:][:s.langs]
	if s.chunks >= s.rows {
		for i, v := range s.open {
			s.win[i] -= v
		}
	}
	clear(s.open)
}

// windowDone decides the window that just completed — the integer
// arg-max Detect uses, then the detector's unknown policy — and feeds
// the decision to the hysteresis merger.
func (s *Stream) windowDone() {
	w := s.chunks - s.rows // index of the completed window
	s.windows++
	best, second := winners(s.win)
	width := float64(s.cfg.Window)
	score := float64(s.win[best]) / width
	margin := score
	if second >= 0 {
		margin = float64(s.win[best]-s.win[second]) / width
	}
	label := best
	if s.cfg.Window < s.d.minNGrams || margin < s.d.minMargin {
		label = unknownLabel
	}
	s.observe(w, label, score, margin)
}

// observe runs the hysteresis state machine over successive window
// decisions: agreement extends the current run, a dissenting language
// opens (or extends) a pending flip, and a flip that persists for
// Hysteresis windows confirms a boundary. Pending windows interrupted
// before confirmation fold back into the current run, so one noisy
// window can never fragment a span.
func (s *Stream) observe(w, label int, score, margin float64) {
	if !s.started {
		s.started = true
		s.cur = segRun{label: label, scoreSum: score, marginSum: margin, windows: 1}
		return
	}
	if label == s.cur.label {
		s.foldFlip()
		s.cur.absorb(segRun{scoreSum: score, marginSum: margin, windows: 1})
		return
	}
	if s.hasFlip && label == s.flip.label {
		s.flip.absorb(segRun{scoreSum: score, marginSum: margin, windows: 1})
	} else {
		// Either the first dissent, or a third language interrupted the
		// pending flip (neither challenger persisted): the pending
		// windows return to the incumbent's byte range and the new
		// challenger starts fresh.
		s.foldFlip()
		s.flip = segRun{label: label, scoreSum: score, marginSum: margin, windows: 1}
		s.flipStart = w
		s.hasFlip = true
	}
	if s.flip.windows >= s.cfg.Hysteresis {
		s.confirmFlip()
	}
}

// foldFlip abandons a pending flip: its windows' byte range stays with
// the incumbent span, but their score/margin sums are discarded — they
// voted for a different language, and Span confidence averages only
// the windows that voted for the span's own language.
func (s *Stream) foldFlip() { s.hasFlip = false }

// confirmFlip emits the boundary for a persisted language change. The
// boundary is attributed to the center of the first window that voted
// for the new language — each window's decision describes its middle
// best — which keeps boundaries within one stride of where decisions
// actually flipped.
func (s *Stream) confirmFlip() {
	boundary := (s.flipStart + s.rows/2) * s.cfg.Stride
	if boundary <= s.cur.startGram {
		boundary = s.cur.startGram + s.cfg.Stride
	}
	s.emit(s.cur, boundary)
	s.flip.startGram = boundary
	s.cur = s.flip
	s.hasFlip = false
}

// emit finalizes the run as a span ending at endGram.
func (s *Stream) emit(r segRun, endGram int) {
	s.appendSpan(r, s.gramByte(r.startGram), s.gramByte(endGram))
}

func (s *Stream) appendSpan(r segRun, startByte, endByte int) {
	sp := Span{Start: startByte, End: endByte}
	if r.label == unknownLabel {
		sp.Unknown = true
	} else {
		sp.Lang = s.d.clf.langs[r.label]
	}
	if r.windows > 0 {
		sp.Score = r.scoreSum / float64(r.windows)
		sp.Margin = r.marginSum / float64(r.windows)
	}
	s.spans = append(s.spans, sp)
}

// gramByte maps an n-gram index to the byte offset where that n-gram
// starts. Alphabet translation is one code per byte, so emitted n-gram
// i begins at character — byte — i·subsample.
func (s *Stream) gramByte(g int) int {
	b := g * s.w.Subsample
	if b > s.bytesSeen {
		b = s.bytesSeen
	}
	return b
}

// Spans returns the spans finalized so far; the span in progress at
// the stream head is excluded until Finish confirms where it ends. The
// returned slice is valid until the next Reset. A stream without
// windowing has no spans.
func (s *Stream) Spans() []Span { return s.spans }

// Finish closes the document and returns its complete span tiling of
// [0, bytes written); without windowing it returns no spans. On a
// segmenting stream the open row of a partial last chunk folds into
// the running totals and the final span is emitted; a document that
// never filled one window is decided whole, exactly as Detect would
// decide it. After Finish the stream rejects further writes until
// Reset; Match and AppendCounts stay readable.
func (s *Stream) Finish() []Span {
	if s.done {
		return s.spans
	}
	s.done = true
	if s.fill > 0 {
		for i, v := range s.open {
			s.totals[i] += v
		}
		s.fill = 0
	}
	if s.rows == 0 || s.bytesSeen == 0 {
		return s.spans
	}
	if s.windows == 0 {
		// Shorter than one window: a single whole-document decision over
		// the full totals.
		m := s.Match()
		s.spans = append(s.spans, Span{
			Start: 0, End: s.bytesSeen,
			Lang: m.Lang, Score: m.Score, Margin: m.Margin, Unknown: m.Unknown,
		})
		return s.spans
	}
	// An unconfirmed flip at end of document folds back into the
	// incumbent — end of input is not persistence.
	s.foldFlip()
	s.appendSpan(s.cur, s.gramByte(s.cur.startGram), s.bytesSeen)
	return s.spans
}

// Match reports the whole-document detection over everything written
// so far, under the detector's policy — the same answer Detect gives
// on the same bytes; the stream stays usable for more chunks. On a
// segmenting stream the totals ride along with chunk counting, so a
// caller wanting both the document-level match and its spans (the
// serving layer's /stream spans mode) pays for one counting pass, not
// two.
func (s *Stream) Match() Match { return s.d.match(s.counts(), s.gramsSeen) }

// AppendCounts appends the whole-document per-language match counts
// over everything written so far, in Languages() order, to dst. With
// room in dst it allocates nothing.
func (s *Stream) AppendCounts(dst []int) []int { return append(dst, s.counts()...) }

// counts returns the whole-document counts: the completed-chunk totals,
// plus the open ring row folded into a copy while a chunk is in
// progress.
func (s *Stream) counts() []int {
	if s.fill == 0 {
		return s.totals
	}
	s.tmp = append(s.tmp[:0], s.totals...)
	for i, v := range s.open {
		s.tmp[i] += v
	}
	return s.tmp
}
