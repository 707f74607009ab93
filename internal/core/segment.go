package core

// Mixed-language segmentation: instead of one label per document, the
// detector labels contiguous single-language regions — quoted replies,
// code-switched chat, bilingual pages — the traffic shapes a production
// detector meets that the paper's whole-document classifier (§2) cannot
// answer with a single language.
//
// Segmentation is a mode of Stream, the one counting stream every
// detection path uses, so it reuses the match-counting inner loop
// unchanged and runs it exactly once per document. The n-gram stream is
// cut into stride-sized chunks; each chunk's per-language counts are
// accumulated through one pass of the backend's Kernel, which scores
// every language per n-gram, into a ring of Window/Stride rows. A
// sliding window of Window n-grams is then the rolling sum of the ring
// — adding the newest chunk row and subtracting the oldest — so
// per-window scoring costs O(L) per stride regardless of window size,
// and no n-gram is ever re-extracted or re-hashed for a second window.
// Window arg-max decisions pass through hysteresis (a new language must
// win Hysteresis consecutive windows before a boundary is emitted) and
// adjacent same-language windows merge into Spans.

import (
	"fmt"
	"io"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/ngram"
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
	// Smoothing exponentially smooths per-language window counts
	// across successive windows: smoothed = Smoothing·previous +
	// (1−Smoothing)·current. 0 (the default) disables smoothing; values
	// toward 1 favour the incumbent language and steady boundaries.
	Smoothing float64
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
	if cfg.Smoothing < 0 || cfg.Smoothing >= 1 {
		return fmt.Errorf("core: segment smoothing %v out of range [0,1)", cfg.Smoothing)
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
// chunk counters and one partial chunk are retained.
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
// buffers whole documents (§3.3). Reset starts the next document, the
// End-of-Document boundary. Every detection path counts through a
// Stream: Detect and the batch workers borrow pooled ones.
//
// A stream from NewStream counts each write whole. A stream from
// NewSpanStream also segments: the n-grams are cut into stride-sized
// chunks whose counts roll through the window ring, finalized spans are
// available from Spans as boundaries are confirmed, and Finish returns
// the complete tiling — identical output for identical bytes, any
// chunking. Either way every n-gram is extracted and counted exactly
// once, and Match and AppendCounts give the whole-document answer. A
// Stream is not safe for concurrent use; create one per goroutine.
type Stream struct {
	d   *Detector
	cfg SegmentConfig // resolved; the zero value turns windowing off
	e   ngram.Extractor
	sub int // extractor subsample: gram index i starts at byte i*sub

	rows  int // ring rows = Window/Stride; 0 without windowing
	langs int

	codes     []alphabet.Code
	grams     []uint32
	chunkBuf  []uint32
	chunkFill int

	ring   []int     // rows × langs per-chunk match counts
	win    []int     // rolling window counts (sum of the ring)
	smooth []float64 // EWMA-smoothed window counts
	totals []int     // whole-document counts over completed chunks
	tmp    []int     // totals with the buffered tail folded in

	bytesSeen int
	gramsSeen int
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
// without segmentation. The extractor is a value copy of the
// classifier's prototype, so streams are independent of each other and
// of the one-shot paths.
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
	s.e = s.d.clf.extractor
	s.sub = s.d.clf.cfg.Subsample
	if cap(s.totals) < s.langs {
		s.totals = make([]int, s.langs)
	}
	s.totals = s.totals[:s.langs]
	clear(s.totals)
	s.chunkFill, s.bytesSeen, s.gramsSeen, s.chunks, s.windows = 0, 0, 0, 0, 0
	s.started, s.hasFlip, s.done = false, false, false
	s.cur, s.flip = segRun{}, segRun{}
	s.spans = s.spans[:0]
	s.rows = 0
	if cfg.Window == 0 {
		return
	}
	s.rows = cfg.Window / cfg.Stride
	if cap(s.chunkBuf) < cfg.Stride {
		s.chunkBuf = make([]uint32, cfg.Stride)
	}
	s.chunkBuf = s.chunkBuf[:cfg.Stride]
	if n := s.rows * s.langs; cap(s.ring) < n {
		s.ring = make([]int, n)
	} else {
		s.ring = s.ring[:n]
	}
	if cap(s.win) < s.langs {
		s.win = make([]int, s.langs)
		s.smooth = make([]float64, s.langs)
	}
	s.win, s.smooth = s.win[:s.langs], s.smooth[:s.langs]
	clear(s.win)
}

// Reset prepares the stream for a new document under the same
// configuration.
func (s *Stream) Reset() { s.configure(s.cfg) }

// Write feeds the next chunk of the document. It fails only on a
// stream already closed by Finish; the signature satisfies io.Writer.
func (s *Stream) Write(p []byte) (int, error) {
	codes, err := s.codeBuf(len(p))
	if err != nil {
		return 0, err
	}
	alphabet.TranslateInto(codes, p)
	s.count(codes)
	return len(p), nil
}

// WriteString is Write for string chunks without the []byte copy —
// Stream is an io.StringWriter, so io.WriteString counts JSON-decoded
// documents allocation-free.
func (s *Stream) WriteString(p string) (int, error) {
	codes, err := s.codeBuf(len(p))
	if err != nil {
		return 0, err
	}
	for i := 0; i < len(p); i++ {
		codes[i] = alphabet.Translate(p[i])
	}
	s.count(codes)
	return len(p), nil
}

var errStreamFinished = fmt.Errorf("core: Stream written after Finish (Reset starts a new document)")

// codeBuf returns the translation buffer sized for an n-byte write,
// growing it only when too small, or an error once Finish has closed
// the document.
func (s *Stream) codeBuf(n int) ([]alphabet.Code, error) {
	if s.done {
		return nil, errStreamFinished
	}
	if cap(s.codes) < n {
		s.codes = make([]alphabet.Code, n)
	}
	return s.codes[:n], nil
}

// count is the one extract-and-count step. Without windowing the
// write's n-grams take one kernel pass straight into the totals, so a
// whole document reaches the kernel in one call. With windowing they
// are cut into chunks instead. The bytes are counted before consuming:
// a boundary confirmed inside this write starts within these bytes,
// and gramByte clamps against the running total.
func (s *Stream) count(codes []alphabet.Code) {
	s.bytesSeen += len(codes)
	s.grams = s.e.Feed(s.grams[:0], codes)
	s.gramsSeen += len(s.grams)
	if s.rows == 0 {
		s.d.clf.kernel.AccumulateInto(s.totals, s.grams)
		return
	}
	s.consume(s.grams)
}

// consume cuts the incoming n-gram stream into stride-sized chunks.
// Chunks completing inside gs are counted straight out of the caller's
// slice; a trailing partial chunk is buffered for the next Write.
func (s *Stream) consume(gs []uint32) {
	stride := s.cfg.Stride
	for len(gs) > 0 {
		if s.chunkFill == 0 && len(gs) >= stride {
			s.completeChunk(gs[:stride])
			gs = gs[stride:]
			continue
		}
		n := copy(s.chunkBuf[s.chunkFill:stride], gs)
		s.chunkFill += n
		gs = gs[n:]
		if s.chunkFill == stride {
			s.completeChunk(s.chunkBuf[:stride])
			s.chunkFill = 0
		}
	}
}

// completeChunk scores one stride of n-grams — the single pass through
// the classifier's counting loop these grams will ever take — and
// rolls the window sum forward: the ring row being replaced leaves the
// window, the fresh row enters it.
func (s *Stream) completeChunk(chunk []uint32) {
	row := s.ring[(s.chunks%s.rows)*s.langs:][:s.langs]
	if s.chunks >= s.rows {
		for i, v := range row {
			s.win[i] -= v
		}
	}
	clear(row)
	s.d.clf.kernel.AccumulateInto(row, chunk)
	for i, v := range row {
		s.win[i] += v
		s.totals[i] += v
	}
	s.chunks++
	if s.chunks >= s.rows {
		s.windowDone()
	}
}

// windowDone decides the window that just completed — smoothing,
// arg-max, the detector's unknown policy — and feeds the decision to
// the hysteresis merger.
func (s *Stream) windowDone() {
	w := s.chunks - s.rows // index of the completed window
	alpha := s.cfg.Smoothing
	if s.windows == 0 || alpha == 0 {
		for i, v := range s.win {
			s.smooth[i] = float64(v)
		}
	} else {
		for i, v := range s.win {
			s.smooth[i] = alpha*s.smooth[i] + (1-alpha)*float64(v)
		}
	}
	s.windows++
	best, second := floatWinners(s.smooth)
	width := float64(s.cfg.Window)
	score := s.smooth[best] / width
	margin := score
	if second >= 0 {
		margin = (s.smooth[best] - s.smooth[second]) / width
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
	b := g * s.sub
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
// segmenting stream the buffered tail takes its one counting pass into
// the running totals and the final span is emitted; a document that
// never filled one window is decided whole, exactly as Detect would
// decide it. After Finish the stream rejects further writes until
// Reset; Match and AppendCounts stay readable.
func (s *Stream) Finish() []Span {
	if s.done {
		return s.spans
	}
	s.done = true
	if s.chunkFill > 0 {
		copy(s.totals, s.counts())
		s.chunkFill = 0
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

// counts returns the whole-document counts: the completed-chunk totals
// with any buffered tail folded into a copy. The tail's real
// pass happens when its chunk completes or at Finish.
func (s *Stream) counts() []int {
	if s.chunkFill == 0 {
		return s.totals
	}
	s.tmp = append(s.tmp[:0], s.totals...)
	s.d.clf.kernel.AccumulateInto(s.tmp, s.chunkBuf[:s.chunkFill])
	return s.tmp
}

// floatWinners is winners over smoothed float counts: indices of the
// highest and second-highest values, ties towards the lower index (the
// lexicographically earlier language).
func floatWinners(scores []float64) (best, second int) {
	best, second = -1, -1
	for i, v := range scores {
		switch {
		case best == -1 || v > scores[best]:
			second = best
			best = i
		case second == -1 || v > scores[second]:
			second = i
		}
	}
	return best, second
}
