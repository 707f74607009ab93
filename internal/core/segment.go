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
// straight from bytes to counts (Stream.countBytes) into the stream's
// running totals. Each completed chunk c keeps its counts r_c, one
// byte per language, and takes one Viterbi step over them: the path
// score to maximise is
// Σ r_c[label_c] − Penalty·(label changes), the paper's
// match count summed over each span with a fixed price per boundary
// (the language-switch model of Lui, Lau & Baldwin, TACL 2014, kept
// integer and exact). The step is
//
//	S_c[l] = r_c[l] + max(S_{c−1}[l], max_k S_{c−1}[k] − Penalty)
//
// so one shared maximum serves every language, and the back-pointer
// per chunk is that maximum's language plus one "switched" bit per
// language. Spans come from tracing the best path back; a span's
// counts are the sum of its chunks' counts, taken as the trace-back's
// commit walks them, and the span is decided by Detect's own rule over
// its n-grams. The mask kernel's chunk counts are its lane words as
// they come out of the fused loop, and it runs the same step on them
// (countChunks, mask.go).

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"bloomlang/internal/ngram"
)

// Span is one contiguous single-language region of a segmented
// document: the half-open byte range [Start, End), the language called
// for it, and the confidence behind the call. Spans returned for one
// document always tile [0, len(doc)) with no gaps or overlaps.
type Span struct {
	// Start is the first byte of the span.
	Start int
	// End is the byte after the last byte of the span.
	End int
	// Lang is the span's language code, or "" when Unknown.
	Lang string
	// Score is the fraction of the span's n-grams found in its
	// language's profile: Detect's Score over the span's summed counts.
	Score float64
	// Margin is the span language's normalized lead over the runner-up
	// across the span's n-grams — the §5.1 winner margin, per span.
	Margin float64
	// Unknown reports that no language cleared the detector's
	// confidence thresholds for this region; Lang is "".
	Unknown bool
}

// Segmentation defaults.
const (
	// DefaultSegmentWindow is the default commit horizon in n-grams. It
	// bounds a stream's memory, and at 4096 n-grams documents under
	// 8 KB never reach a horizon commit, so they decode exactly.
	DefaultSegmentWindow = 4096
	// DefaultSegmentStride is the default chunk length in n-grams, the
	// granularity of span boundaries.
	DefaultSegmentStride = 16
	// DefaultSegmentPenalty is the default price of one language
	// change, in n-gram matches. It was tuned on held-out mixed
	// documents: lower values split single-language documents at
	// sibling-language borrowings, higher ones miss short segments.
	DefaultSegmentPenalty = 8
)

// SegmentConfig carries the segmentation knobs. The zero value selects
// the defaults.
type SegmentConfig struct {
	// Window is the commit horizon in n-grams (default 4096). Once
	// 2·Window n-grams are in, and after every further Window, all
	// more than Window n-grams behind the head is committed along the
	// best path so far, whether or not every survivor path agrees on
	// it. A stream so keeps at most 2·Window/Stride chunk records, each
	// a back-pointer and one count byte per language —
	// O(Window/Stride × languages) memory whatever the document length.
	// It must be a multiple of Stride.
	Window int
	// Stride is the chunk length in n-grams (default 16, or the
	// largest divisor of Window below that), at most MaxSegmentStride;
	// boundaries fall on chunk edges. The counting work does not depend on it: every n-gram is
	// still hashed exactly once.
	Stride int
	// Penalty is the score one language change costs, in n-gram
	// matches (default 8). Raising it suppresses short spans; on a
	// document of at most 2·Window n-grams, a penalty at least its
	// n-gram count yields one span, decided exactly as Detect decides
	// the document. Longer documents take horizon commits along the
	// best path at the time, so a language that overtakes later can
	// still split them.
	Penalty int
}

// MaxSegmentStride is the largest chunk length: a chunk's count for
// each language is kept in one byte.
const MaxSegmentStride = 255

// WithDefaults returns the configuration with zero fields replaced by
// the package defaults — the effective configuration segmentation runs
// under.
func (c SegmentConfig) WithDefaults() SegmentConfig {
	if c.Window == 0 {
		c.Window = DefaultSegmentWindow
	}
	if c.Stride == 0 {
		// Nudged down to a divisor so any Window validates out of the
		// box.
		s := max(min(DefaultSegmentStride, c.Window), 1)
		for c.Window%s != 0 {
			s--
		}
		c.Stride = s
	}
	if c.Penalty == 0 {
		c.Penalty = DefaultSegmentPenalty
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
	if cfg.Stride < 1 || cfg.Window%cfg.Stride != 0 {
		return fmt.Errorf("core: segment stride %d must be a positive divisor of window %d (the horizon is a whole number of chunks)", cfg.Stride, cfg.Window)
	}
	if cfg.Stride > MaxSegmentStride {
		return fmt.Errorf("core: segment stride %d is over %d (a chunk keeps one count byte per language)", cfg.Stride, MaxSegmentStride)
	}
	if cfg.Penalty < 0 {
		return fmt.Errorf("core: segment penalty %d must not be negative", cfg.Penalty)
	}
	return nil
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
	s, err := d.BorrowStream(&cfg)
	if err != nil {
		return dst, err
	}
	s.Write(doc)
	dst = append(dst, s.Finish()...)
	d.ReturnStream(s)
	return dst, nil
}

// Stream counts one document incrementally with bounded memory: bytes
// arrive in arbitrary chunks via Write or WriteString, n-grams are
// counted as they complete, and Match reports the decision over
// everything written so far — the software mirror of the hardware
// datapath, which consumes the DMA stream burst by burst and never
// buffers whole documents (§3.3). The Stream is the one place bytes
// become counts: every write is shifted through the n-gram register
// carried in the stream's window, and the n-grams it completes are
// counted by the mask kernel's fused loop, which stores none of them,
// or handed to the backend Kernel a block of at most 256 at a time.
// Reset starts the next document, the End-of-Document boundary. Every
// detection path counts through a Stream: Detect and the batch workers
// borrow pooled ones.
//
// A stream from NewStream counts each write whole into the document
// totals. A stream from NewSpanStream also segments: each write is cut
// at the bytes that complete a stride of n-grams, each piece is counted
// straight into the running totals, and each completed chunk keeps its
// counts and takes one Viterbi step. Spans returns the spans every survivor path agrees
// on so far, and Finish returns the complete tiling — identical output
// for identical bytes, any chunking. Either way every n-gram is counted
// exactly once, and Match and AppendCounts give the whole-document
// answer. A Stream is not safe for concurrent use; create one per
// goroutine.
type Stream struct {
	d     *Detector
	cfg   SegmentConfig // resolved; the zero value turns segmentation off
	w     ngram.Window
	langs int

	// plane is the mask kernel's one plane when its fused loop counts
	// this stream (countFused), else nil.
	plane []uint16

	// open counts everything written so far, langs wide; with
	// segmentation prev is open as it stood when the open chunk began.
	open []int
	prev []int

	bytesSeen int
	gramsSeen int
	fill      int // n-grams counted into the open chunk

	// Viterbi state. Chunks before base are committed; back holds, per
	// chunk from base on, bw words: the arg-max language of the scores
	// before the chunk, then nsw words of one "switched" bit per
	// language, then the chunk's counts, one byte lane per language and
	// two words per 16 languages, as the mask kernel's lo and hi.
	nextCommit int   // chunk count of the next horizon commit
	chunks     int   // completed chunks
	base       int   // first uncommitted chunk
	score      []int // S per language after the last completed chunk
	best       int   // arg-max of score, lowest index on ties
	bw, nsw    int
	back       []uint64
	changes    [][2]int // scratch: a traced path's language changes
	agree      []uint64 // scratch: the survivor set of the agreement walk

	// The committed run still open at the frontier: its label
	// (-1 before the first commit), its first chunk, and the counts of
	// its chunks committed so far, the latest runSummed of them still
	// in byte lanes in runLanes, the others in runCounts.
	runLabel  int
	runStart  int
	runCounts []int
	runLanes  []uint64
	runSummed int

	spans []Span
	done  bool

	// block holds the n-grams of up to gramBlock bytes on their way to
	// the kernel when the fused loop does not apply. It sits last, so
	// the counting state above shares cache lines.
	block [gramBlock]uint32
}

// NewStream starts an empty document stream on the detector, counting
// without segmentation. Each stream carries its own n-gram window, so
// streams are independent of each other and of the one-shot paths.
func (d *Detector) NewStream() *Stream {
	s := &Stream{d: d}
	s.configure(SegmentConfig{})
	return s
}

// NewSpanStream starts an empty segmenting stream on the detector. The
// zero SegmentConfig selects the defaults.
func (d *Detector) NewSpanStream(cfg SegmentConfig) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Stream{d: d}
	s.configure(cfg.WithDefaults())
	return s, nil
}

// configure (re)arms the stream for a new document under cfg — a
// resolved configuration, or the zero value for whole-document
// counting — reusing the buffers a previous use left.
func (s *Stream) configure(cfg SegmentConfig) {
	s.cfg = cfg
	L := len(s.d.langs)
	s.langs = L
	s.w = ngram.Window{N: s.d.cfg.N}
	s.plane = nil
	if m, ok := s.d.kernel.(*maskKernel); ok && len(m.planes) == 1 {
		s.plane = m.planes[0]
	}
	s.bytesSeen, s.gramsSeen, s.fill, s.chunks, s.base = 0, 0, 0, 0, 0
	s.done = false
	s.spans = s.spans[:0]
	s.open = zeroed(s.open, L)
	if cfg.Stride > 0 {
		// The first commit comes two horizons in; one past the int
		// range never comes.
		h := cfg.Window / cfg.Stride
		s.nextCommit = h + min(h, math.MaxInt-h)
		s.best = 0
		lanes := 2 * ((L + maskPlaneLangs - 1) / maskPlaneLangs)
		s.nsw = (L + 63) / 64
		s.bw = 1 + s.nsw + lanes
		s.back = s.back[:0]
		s.prev = zeroed(s.prev, L)
		s.score = zeroed(s.score, L)
		s.runLabel, s.runStart, s.runSummed = -1, 0, 0
		s.runCounts = zeroed(s.runCounts, L)
		s.runLanes = zeroed(s.runLanes, lanes)
	}
}

// zeroed returns b resized to n zeroed elements, reusing its storage.
func zeroed[T int | uint64](b []T, n int) []T {
	b = extend(b[:0], n)
	clear(b)
	return b
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

// gramBlock is the most bytes, and so the most n-grams, a Stream hands
// the kernel's AccumulateInto at once.
const gramBlock = 256

// countBytes is the one pass from bytes to counts: it shifts p through
// the stream's window and adds the matches of every n-gram it
// completes into the totals, returning how many that was. The fused
// mask loop counts straight from the bytes; any other kernel gets the
// n-grams a block at a time. The window carries across calls, so a
// document counted in any number of pieces gets the counts of one call
// over all of it.
func (s *Stream) countBytes(p []byte) (grams int) {
	if s.plane != nil {
		return countFused(s.plane, &s.w, s.open, p)
	}
	for len(p) > 0 {
		n := min(len(p), gramBlock)
		gs := s.w.FeedBytes(s.block[:0], p[:n])
		s.d.kernel.AccumulateInto(s.open, gs)
		grams += len(gs)
		p = p[n:]
	}
	return grams
}

// count is the one counting step. Without segmentation the whole write
// goes through countBytes into the totals. With segmentation the write
// is cut where each stride of n-grams completes, and each piece is
// counted into the totals; where the fused loop applies, runs of whole
// chunks are counted and stepped on its lanes (countChunks).
func (s *Stream) count(p []byte) {
	s.bytesSeen += len(p)
	if s.cfg.Stride == 0 {
		s.gramsSeen += s.countBytes(p)
		return
	}
	stride := s.cfg.Stride
	fused := s.plane != nil && s.cfg.Penalty < 128-stride
	for len(p) > 0 {
		if fused && s.fill == 0 && s.w.Filled == s.w.N-1 && len(p) >= stride {
			k := min(len(p)/stride, s.nextCommit-s.chunks)
			s.w.Reg = s.countChunks(s.plane, s.w.Reg, p[:k*stride], s.grow(k))
			p = p[k*stride:]
			s.gramsSeen += k * stride
			s.closed(k)
			continue
		}
		n := min(s.w.BytesFor(stride-s.fill), len(p))
		grams := s.countBytes(p[:n])
		p = p[n:]
		s.gramsSeen += grams
		if s.fill += grams; s.fill == stride {
			s.stepOpen(s.grow(1))
			s.closed(1)
		}
	}
}

// grow makes room for k more chunks and returns their records.
func (s *Stream) grow(k int) []uint64 {
	s.back = extend(s.back, k*s.bw)
	return s.back[len(s.back)-k*s.bw:]
}

// closed finishes k chunks whose records and steps are in place, and
// every horizon commits the undecided tail.
func (s *Stream) closed(k int) {
	s.fill = 0
	s.chunks += k
	if s.chunks == s.nextCommit {
		// Bound the undecided tail: commit what lies a horizon behind
		// the head along today's best path. The schedule depends on the
		// chunk count alone, so the output does not depend on how the
		// bytes were split or on when Spans was called.
		h := s.cfg.Window / s.cfg.Stride
		s.nextCommit += h
		if s.chunks-h > s.base {
			s.commit(s.chunks-1, s.best, s.chunks-h)
		}
	}
}

// stepOpen closes the open chunk, whose counts are open less prev: it
// writes them into the chunk's record bp, in its byte lanes, and takes
// the chunk's Viterbi step.
func (s *Stream) stepOpen(bp []uint64) {
	L := s.langs
	score, best := s.score[:L], s.best
	clear(bp)
	bp[0] = uint64(best)
	sw, lanes := bp[1:1+s.nsw], bp[1+s.nsw:]
	// A language switches in only when the best score, less the
	// penalty, beats staying: ties stay, and the arg-max keeps the
	// lowest index, as Detect does.
	thr := score[best] - s.cfg.Penalty
	best = 0
	for l, v := range score {
		r := s.open[l] - s.prev[l]
		lanes[l>>3] |= uint64(r) << (l & 7 * 8)
		sw[l>>6] |= uint64(v-thr) >> 63 << (l & 63)
		score[l] = max(v, thr) + r
		if score[l] > score[best] {
			best = l
		}
	}
	copy(s.prev, s.open)
	s.best = best
}

// extend returns b lengthened by n elements, reusing its storage when
// it has room; the new elements' values are unspecified.
func extend[T any](b []T, n int) []T {
	return slices.Grow(b, n)[:len(b)+n]
}

// switched reports whether the best path into language l at chunk c
// came from another language.
func (s *Stream) switched(c, l int) bool {
	return s.back[(c-s.base)*s.bw+1+l>>6]>>(l&63)&1 != 0
}

// commit traces the best path into language label at chunk last back
// to the frontier, commits its labels for chunks [base, upto) and
// emits the spans that end there. The run still open at upto stays
// open.
func (s *Stream) commit(last, label, upto int) {
	// Keep only where the path changes language, latest first: the
	// chunk each change happens at and the language it changes to.
	s.changes = s.changes[:0]
	for c := last; c > s.base; c-- {
		if s.switched(c, label) {
			s.changes = append(s.changes, [2]int{c, label})
			label = int(s.back[(c-s.base)*s.bw])
		}
	}
	// Walk the committed chunks in order, adding each to its run.
	c := s.base
	s.change(c, label)
	for i := len(s.changes) - 1; i >= 0 && s.changes[i][0] < upto; i-- {
		s.addRun(c, s.changes[i][0])
		c = s.changes[i][0]
		s.change(c, s.changes[i][1])
	}
	s.addRun(c, upto)
	// Drop the committed chunks' records.
	k := upto - s.base
	s.back = s.back[:copy(s.back, s.back[k*s.bw:])]
	s.base = upto
}

// change moves the committed path to language l at chunk c, emitting
// the run it ends.
func (s *Stream) change(c, l int) {
	if l == s.runLabel {
		return
	}
	if s.runLabel >= 0 {
		s.emit(c * s.cfg.Stride)
	}
	s.runLabel, s.runStart = l, c
}

// addRun adds the counts of uncommitted chunks [from, to) to the open
// run: lane words add as they are, a plane's two words at a time, and
// reach runCounts before a byte lane could overflow.
func (s *Stream) addRun(from, to int) {
	perFlush := MaxSegmentStride / s.cfg.Stride
	for from < to {
		k := min(to-from, perFlush-s.runSummed)
		recs := s.back[(from-s.base)*s.bw:][:k*s.bw]
		for q := 0; q < len(s.runLanes); q += 2 {
			lo, hi := s.runLanes[q], s.runLanes[q+1]
			for i := 1 + s.nsw + q; i+1 < len(recs); i += s.bw {
				lo, hi = lo+recs[i], hi+recs[i+1]
			}
			s.runLanes[q], s.runLanes[q+1] = lo, hi
		}
		from += k
		if s.runSummed += k; s.runSummed == perFlush {
			s.flushRun()
		}
	}
}

// flushRun moves the run's lane words into runCounts.
func (s *Stream) flushRun() {
	for i := 0; i < len(s.runLanes); i += 2 {
		addLanes(s.runCounts[i*8:], s.runLanes[i], s.runLanes[i+1])
	}
	clear(s.runLanes)
	s.runSummed = 0
}

// emit closes the open run at n-gram endGram: the span is decided by
// Detect's rule over its own counts.
func (s *Stream) emit(endGram int) {
	s.flushRun()
	startGram := s.runStart * s.cfg.Stride
	m := s.d.match(s.runCounts, endGram-startGram)
	clear(s.runCounts)
	s.spans = append(s.spans, Span{
		Start: s.gramByte(startGram), End: s.gramByte(endGram),
		Lang: m.Lang, Score: m.Score, Margin: m.Margin, Unknown: m.Unknown,
	})
}

// gramByte maps an n-gram index to the byte offset where that n-gram
// starts. Alphabet translation is one code per byte, so n-gram i
// begins at character — byte — i.
func (s *Stream) gramByte(g int) int {
	return min(g, s.bytesSeen)
}

// Spans returns the spans finalized so far: those every survivor path
// agrees on, so they are a prefix of what Finish returns. The returned
// slice is valid until the next Reset. A stream without segmentation
// has no spans.
func (s *Stream) Spans() []Span {
	if s.done || s.chunks == s.base {
		return s.spans
	}
	// Walk the survivors back together: a switched survivor moves to
	// the chunk's shared arg-max, the others stay. Where only one state
	// is left, every path agrees on it and on all before it.
	set := zeroed(s.agree, s.nsw)
	for l := range s.langs {
		set[l>>6] |= 1 << (l & 63)
	}
	for c := s.chunks - 1; c >= s.base; c-- {
		n, l := 0, 0
		for i, w := range set {
			if w != 0 {
				n, l = n+bits.OnesCount64(w), i<<6+bits.TrailingZeros64(w)
			}
		}
		if n == 1 {
			s.commit(c, l, c+1)
			break
		}
		bp := s.back[(c-s.base)*s.bw:][:s.bw]
		moved := false
		for i, sw := range bp[1 : 1+s.nsw] {
			moved = moved || set[i]&sw != 0
			set[i] &^= sw
		}
		if moved {
			set[bp[0]>>6] |= 1 << (bp[0] & 63)
		}
	}
	s.agree = set
	return s.spans
}

// Finish closes the document and returns its complete span tiling of
// [0, bytes written); without segmentation it returns no spans. A
// partial last chunk takes its Viterbi step like any other, the best
// path is traced back over everything not yet committed, and the final
// span ends at the last byte. A document with no boundary on its best
// path — one too short to chunk, say — is one span decided exactly as
// Detect would decide it. After Finish the stream rejects further
// writes until Reset; Match and AppendCounts stay readable.
func (s *Stream) Finish() []Span {
	if s.done {
		return s.spans
	}
	s.done = true
	if s.cfg.Stride == 0 || s.bytesSeen == 0 {
		return s.spans
	}
	if s.fill > 0 {
		s.stepOpen(s.grow(1))
		s.closed(1)
	}
	if s.chunks > s.base {
		s.commit(s.chunks-1, s.best, s.chunks)
	}
	s.emit(s.gramsSeen)
	s.spans[len(s.spans)-1].End = s.bytesSeen
	return s.spans
}

// Match reports the whole-document detection over everything written
// so far, under the detector's policy — the same answer Detect gives
// on the same bytes; the stream stays usable for more chunks. On a
// segmenting stream the totals count the whole document, so a
// caller wanting both the document-level match and its spans (the
// serving layer's /stream spans mode) pays for one counting pass, not
// two.
func (s *Stream) Match() Match { return s.d.match(s.open, s.gramsSeen) }

// AppendCounts appends the whole-document per-language match counts
// over everything written so far, in Languages() order, to dst. With
// room in dst it allocates nothing.
func (s *Stream) AppendCounts(dst []int) []int { return append(dst, s.open...) }
