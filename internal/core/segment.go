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
// cut where each chunk of 16 n-grams completes — the group the AVX2
// kernel counts at once (countGroups), the datapath's fixed width — and
// each piece adds its lane words (Kernel.AddLanes) into the open
// chunk's. Each completed
// chunk c keeps its counts r_c, one byte per language, and takes one
// Viterbi step over them: the path score to maximise is
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
// its n-grams.
//
// A stream takes every step in one of two forms, chosen once per
// configuration. With at most 16 languages and Penalty below 128-16
// (a lane stream) it keeps, for each language, its deficit behind
// the best score in a byte lane, and every chunk — whole chunks counted
// in runs, and chunks closed across writes or at the document's end —
// steps through stepLanes (mask.go), a few word operations on eight
// languages at a time. Any other stream keeps the scores S as ints and
// steps language by language (stepOpen). Both make the same decisions.

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
	// DefaultSegmentStride is the chunk length in n-grams, the
	// granularity of span boundaries, and the only one: one group of
	// the counting kernel.
	DefaultSegmentStride = groupLen
	// DefaultSegmentPenalty is the default price of one language
	// change, in n-gram matches. It was tuned on held-out mixed
	// documents: lower values split single-language documents at
	// sibling-language borrowings, higher ones miss short segments.
	DefaultSegmentPenalty = 8
)

// SegmentConfig carries the segmentation knobs. The zero value selects
// the defaults.
type SegmentConfig struct {
	// Window is the commit horizon in n-grams (default 4096), a
	// positive multiple of 16. Once 2·Window n-grams are in, and after
	// every further Window, all more than Window n-grams behind the
	// head is committed along the best path so far, whether or not
	// every survivor path agrees on it. A stream so keeps at most
	// 2·Window/16 chunk records, each a back-pointer and one count byte
	// per language — O(Window/16 × languages) memory whatever the
	// document length.
	Window int
	// Stride is the chunk length in n-grams, fixed at 16
	// (DefaultSegmentStride): zero selects it, and Validate refuses any
	// other value. Boundaries fall on chunk edges. With at most 16
	// languages and Penalty below 112, every chunk's Viterbi step runs
	// on byte lanes.
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

// WithDefaults returns the configuration with zero fields replaced by
// the package defaults — the effective configuration segmentation runs
// under.
func (c SegmentConfig) WithDefaults() SegmentConfig {
	if c.Window == 0 {
		c.Window = DefaultSegmentWindow
	}
	if c.Stride == 0 {
		c.Stride = DefaultSegmentStride
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
	if cfg.Stride != groupLen {
		return fmt.Errorf("core: segment stride %d is not %d (chunks are the counting kernel's %d-n-gram groups; 0 selects it)", cfg.Stride, groupLen, groupLen)
	}
	if cfg.Window < 1 || cfg.Window%groupLen != 0 {
		return fmt.Errorf("core: segment window %d must be a positive multiple of %d (the horizon is a whole number of chunks)", cfg.Window, groupLen)
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
// or handed to the backend Kernel's AddLanes a block at a time.
// Reset starts the next document, the End-of-Document boundary. Every
// detection path counts through a Stream: Detect and the batch workers
// borrow pooled ones.
//
// A stream from NewStream counts each write whole into the document
// totals. A stream from NewSpanStream also segments: each write is cut
// at the bytes that complete a chunk of 16 n-grams, and each completed
// chunk keeps its counts, adds them to the totals and takes one Viterbi
// step, through the one step function of the form configure chose
// (stepLanes on a lane stream, else the int step). Spans returns the
// spans every survivor path agrees on so far, and Finish returns the
// complete tiling — identical output for identical bytes, any
// chunking. Either way every n-gram is counted exactly once, and Match
// and AppendCounts give the whole-document answer. A Stream is not
// safe for concurrent use; create one per goroutine.
type Stream struct {
	d     *Detector
	cfg   SegmentConfig // resolved; the zero value turns segmentation off
	w     ngram.Window
	langs int

	// plane is the mask kernel's one plane when its fused loop counts
	// this stream (countFused), else nil.
	plane []uint16

	// totals counts everything written but the n-grams still in lanes
	// (an open chunk's); sum is Match's scratch for both.
	totals []int
	lanes  []uint64
	sum    []int

	bytesSeen int
	gramsSeen int
	fill      int // n-grams counted into the open chunk

	// Viterbi state. Chunks before base are committed; back holds, per
	// chunk from base on, bw words: the arg-max language of the scores
	// before the chunk, then nsw words of one "switched" bit per
	// language, then the chunk's counts, one byte lane per language and
	// two words per 16 languages, as the mask kernel's lo and hi. The
	// scores after the last completed chunk take one of two forms,
	// chosen by configure: on a lane stream (laneStep) each language's
	// deficit behind the best, one byte lane each in dl, and S per
	// language in score otherwise.
	nextCommit int // chunk count of the next horizon commit
	chunks     int // completed chunks
	base       int // first uncommitted chunk
	laneStep   bool
	dl         [2]uint64
	score      []int
	best       int // the best score's language, lowest index on ties
	bw, nsw    int
	back       []uint64
	changes    [][2]int // scratch: a traced path's language changes
	agree      []uint64 // scratch: the survivor set of the agreement walk

	// The committed run still open at the frontier: its label
	// (-1 before the first commit), its first chunk, and the counts of
	// its chunks committed so far.
	runLabel  int
	runStart  int
	runCounts []int

	spans []Span
	done  bool

	// block holds up to laneFlush n-grams on their way to the kernel
	// when the fused loop does not apply. It sits last, so the counting
	// state above shares cache lines.
	block [laneFlush]uint32
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
	s.totals = zeroed(s.totals, L)
	s.lanes = zeroed(s.lanes, 2*((L+maskPlaneLangs-1)/maskPlaneLangs))
	if cfg.Window > 0 {
		// The first commit comes two horizons in; one past the int
		// range never comes.
		h := cfg.Window / groupLen
		s.nextCommit = h + min(h, math.MaxInt-h)
		s.best = 0
		s.nsw = (L + 63) / 64
		s.bw = 1 + s.nsw + len(s.lanes)
		s.back = s.back[:0]
		// A lane stream holds every deficit in a byte lane. A lane past
		// the last language starts 127 behind, more than Penalty, so it
		// always switches in and scores nothing.
		s.laneStep = L <= maskPlaneLangs && cfg.Penalty < 128-groupLen
		if s.laneStep {
			s.dl = [2]uint64{0x7f7f7f7f7f7f7f7f << (8 * min(L, 8)), 0x7f7f7f7f7f7f7f7f << (8 * max(L-8, 0))}
		} else {
			s.score = zeroed(s.score, L)
		}
		s.runLabel, s.runStart = -1, 0
		s.runCounts = zeroed(s.runCounts, L)
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

// feed shifts p through the window and adds the n-grams it completes,
// at most laneFlush, into the lanes; it returns their number.
func (s *Stream) feed(p []byte) int {
	gs := s.w.FeedBytes(s.block[:0], p)
	s.d.kernel.AddLanes(s.lanes, gs)
	return len(gs)
}

// count is the one counting step. Without segmentation the write goes
// into the totals through the fused loop, or laneFlush bytes at a time
// through the kernel. With segmentation it is cut where each chunk of
// 16 n-grams completes and each piece fed into the open chunk; on a lane
// stream, runs of whole chunks are counted and stepped on lane words
// (countChunks) without passing through the open chunk.
func (s *Stream) count(p []byte) {
	s.bytesSeen += len(p)
	if s.cfg.Window == 0 {
		if s.plane != nil {
			s.gramsSeen += countFused(s.plane, &s.w, s.totals, p)
			return
		}
		for len(p) > 0 {
			n := min(len(p), laneFlush)
			s.gramsSeen += s.feed(p[:n])
			foldLanes(s.totals, s.lanes)
			clear(s.lanes)
			p = p[n:]
		}
		return
	}
	for len(p) > 0 {
		if s.laneStep && s.fill == 0 && s.w.Filled == s.w.N-1 && len(p) >= groupLen {
			k := min(len(p)/groupLen, s.nextCommit-s.chunks, maxGroups)
			s.countChunks(p[:k*groupLen], s.grow(k))
			p = p[k*groupLen:]
			s.gramsSeen += k * groupLen
			s.closed(k)
			continue
		}
		n := min(s.w.BytesFor(groupLen-s.fill), len(p))
		grams := s.feed(p[:n])
		p = p[n:]
		s.gramsSeen += grams
		if s.fill += grams; s.fill == groupLen {
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
		h := s.cfg.Window / groupLen
		s.nextCommit += h
		if s.chunks-h > s.base {
			s.commit(s.chunks-1, s.best, s.chunks-h)
		}
	}
}

// stepOpen closes the open chunk, whose counts are the lane words in
// lanes: on a lane stream through stepLanes, else it copies them into
// its record bp and takes the chunk's Viterbi step on each language's
// count read from them. Either way it folds them into the totals.
func (s *Stream) stepOpen(bp []uint64) {
	if s.laneStep {
		s.stepLanes(s.lanes, bp)
	} else {
		score, best := s.score[:s.langs], s.best
		clear(bp)
		bp[0] = uint64(best)
		sw := bp[1 : 1+s.nsw]
		copy(bp[1+s.nsw:], s.lanes)
		// A language switches in only when the best score, less the
		// penalty, beats staying: ties stay, and the arg-max keeps the
		// lowest index, as Detect does.
		thr := score[best] - s.cfg.Penalty
		best = 0
		for l, v := range score {
			r := int(s.lanes[l>>3] >> (l & 7 * 8) & 0xff)
			sw[l>>6] |= uint64(v-thr) >> 63 << (l & 63)
			score[l] = max(v, thr) + r
			if score[l] > score[best] {
				best = l
			}
		}
		s.best = best
	}
	foldLanes(s.totals, s.lanes)
	clear(s.lanes)
}

// extend returns b lengthened by n elements, reusing its storage when
// it has room; the new elements' values are unspecified.
func extend[T any](b []T, n int) []T {
	return slices.Grow(b, n)[:len(b)+n]
}

// commit traces the best path into language label at chunk last back
// to the frontier, commits its labels for chunks [base, upto) and
// emits the spans that end there. The run still open at upto stays
// open.
func (s *Stream) commit(last, label, upto int) {
	// Keep only where the path changes language, latest first: the
	// chunk each change happens at and the language it changes to, read
	// off the chunk's switched bit for the path's language.
	s.changes = s.changes[:0]
	for c := last; c > s.base; c-- {
		if s.back[(c-s.base)*s.bw+1+label>>6]>>(label&63)&1 != 0 {
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
		s.emit(c * groupLen)
	}
	s.runLabel, s.runStart = l, c
}

// addRun adds the counts of uncommitted chunks [from, to) to the open
// run, one plane's two lane words at a time through sumChunks.
func (s *Stream) addRun(from, to int) {
	recs := s.back[(from-s.base)*s.bw : (to-s.base)*s.bw]
	for q := 0; q < len(s.lanes); q += 2 {
		sumChunks(s.runCounts[8*q:], recs[1+s.nsw+q:], s.bw)
	}
}

// emit closes the open run at n-gram endGram: the span is decided by
// Detect's rule over its own counts.
func (s *Stream) emit(endGram int) {
	startGram := s.runStart * groupLen
	m := s.d.match(s.runCounts, endGram-startGram)
	clear(s.runCounts)
	// N-gram i starts at byte i: translation is one code per byte.
	s.spans = append(s.spans, Span{
		Start: min(startGram, s.bytesSeen), End: min(endGram, s.bytesSeen),
		Lang: m.Lang, Score: m.Score, Margin: m.Margin, Unknown: m.Unknown,
	})
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
	if s.cfg.Window == 0 || s.bytesSeen == 0 {
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
func (s *Stream) Match() Match { return s.d.match(s.counts(), s.gramsSeen) }

// AppendCounts appends the whole-document per-language match counts
// over everything written so far, in Languages() order, to dst. With
// room in dst it allocates nothing.
func (s *Stream) AppendCounts(dst []int) []int { return append(dst, s.counts()...) }

// counts returns the totals, plus a partly counted open chunk in sum.
func (s *Stream) counts() []int {
	if s.fill == 0 {
		return s.totals
	}
	s.sum = append(s.sum[:0], s.totals...)
	foldLanes(s.sum, s.lanes)
	return s.sum
}
