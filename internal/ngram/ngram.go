// Package ngram implements n-gram extraction, counting, and language
// profile construction for the Bloom-filter language classifier.
//
// An n-gram is a sequence of exactly n characters; n-grams are extracted
// from a document by a sliding window that shifts one character at a
// time (paper §1). After alphabet conversion each character is a 5-bit
// code, so a 4-gram packs into 20 bits and is carried as a uint32
// throughout the pipeline — the same word the hardware datapath carries.
//
// A language profile is the t most frequently occurring n-grams in a
// training set (t = 5,000 in the paper's implementation, §4), which the
// HAIL authors found produces over 99% classifier accuracy.
package ngram

import (
	"fmt"
	"math"
	"slices"

	"bloomlang/internal/alphabet"
)

// DefaultN is the n-gram length used by the paper's implementation (§4).
const DefaultN = 4

// DefaultProfileSize is the paper's t: the number of most-frequent
// n-grams kept in a language profile (§4).
const DefaultProfileSize = 5000

// Bits returns the packed width of an n-gram of length n: n characters
// of alphabet.Bits bits each.
func Bits(n int) uint { return uint(n) * alphabet.Bits }

// MaxN is the largest n-gram length that still packs into a uint32.
const MaxN = 32 / alphabet.Bits // 6

// Pack packs up to MaxN codes into a single word, first code in the most
// significant position, mirroring the hardware shift register that
// assembles n-grams from the translated character stream.
func Pack(codes []alphabet.Code) uint32 {
	if len(codes) > MaxN {
		panic(fmt.Sprintf("ngram: cannot pack %d codes into 32 bits", len(codes)))
	}
	var g uint32
	for _, c := range codes {
		g = g<<alphabet.Bits | uint32(c)
	}
	return g
}

// Unpack splits a packed n-gram back into its n codes.
func Unpack(g uint32, n int) []alphabet.Code {
	codes := make([]alphabet.Code, n)
	for i := n - 1; i >= 0; i-- {
		codes[i] = alphabet.Code(g & (1<<alphabet.Bits - 1))
		g >>= alphabet.Bits
	}
	return codes
}

// Render returns the human-readable form of a packed n-gram, e.g.
// "TION" or "E TH".
func Render(g uint32, n int) string {
	codes := Unpack(g, n)
	b := make([]byte, n)
	for i, c := range codes {
		b[i] = c.Byte()
	}
	return string(b)
}

// Window is the n-gram shift register of one document in flight: the
// hardware's character buffer (§3.3), held as a value the caller
// carries from one chunk of the document to the next, so an n-gram that
// straddles a chunk boundary is still emitted exactly once. N and
// Subsample configure it; Reg, Filled and Phase are its state, empty
// after Reset. The state fields are exported so that a counting kernel
// outside this package can run its own fused translate-and-shift loop
// over them.
type Window struct {
	// N is the n-gram length, 1..MaxN.
	N int
	// Subsample, when s > 1, emits only every s-th n-gram, the
	// bandwidth-reduction technique HAIL uses and §3.3 mentions as an
	// option when on-chip memory bandwidth is limited.
	Subsample int
	// Reg holds the most recent codes, newest in the low alphabet.Bits
	// bits. Only the low Bits(N) bits are an n-gram; a kernel may leave
	// older codes above them.
	Reg uint64
	// Filled counts the codes shifted in, saturating at N-1: from then
	// on every code completes an n-gram.
	Filled int
	// Phase is the position of the next completed n-gram in the
	// subsample cycle; it is emitted when Phase is 0.
	Phase int
}

// Reset clears the register and the subsample phase, ready for a new
// document. The hardware equivalent is the End-of-Document command
// clearing the character buffer.
func (w *Window) Reset() { w.Reg, w.Filled, w.Phase = 0, 0, 0 }

// Feed shifts the translated codes into the window and appends every
// complete n-gram to dst, returning the extended slice. A document of d
// characters yields exactly max(0, d-n+1) n-grams (before subsampling).
func (w *Window) Feed(dst []uint32, codes []alphabet.Code) []uint32 {
	reg, filled, phase := uint32(w.Reg), w.Filled, w.Phase
	warm, sub, mask := w.N-1, max(w.Subsample, 1), uint32(uint64(1)<<Bits(w.N)-1)
	for _, c := range codes {
		reg = (reg<<alphabet.Bits | uint32(c)) & mask
		if filled < warm {
			filled++
			continue
		}
		if phase == 0 {
			dst = append(dst, reg)
		}
		if phase++; phase == sub {
			phase = 0
		}
	}
	w.Reg, w.Filled, w.Phase = uint64(reg), filled, phase
	return dst
}

// FeedBytes is Feed over raw ISO-8859-1 bytes, translating each one on
// the way in: the translate and shift stages of the datapath in one
// loop, with no code buffer between them. The register's warm-up and a
// subsampled window take it byte by byte; once the register is full
// and every n-gram is kept, each byte completes one n-gram, so the
// rest grows dst once and writes by index, with no branch per byte.
func (w *Window) FeedBytes(dst []uint32, p []byte) []uint32 {
	reg, filled, phase := uint32(w.Reg), w.Filled, w.Phase
	warm, sub, mask := w.N-1, max(w.Subsample, 1), uint32(uint64(1)<<Bits(w.N)-1)
	i := 0
	for ; i < len(p) && (filled < warm || sub > 1); i++ {
		reg = (reg<<alphabet.Bits | uint32(alphabet.Translate(p[i]))) & mask
		if filled < warm {
			filled++
			continue
		}
		if phase == 0 {
			dst = append(dst, reg)
		}
		if phase++; phase == sub {
			phase = 0
		}
	}
	rest := p[i:]
	k := len(dst)
	dst = slices.Grow(dst, len(rest))[:k+len(rest)]
	out := dst[k:][:len(rest)]
	for j, b := range rest {
		reg = reg<<alphabet.Bits | uint32(alphabet.Translate(b))
		out[j] = reg & mask
	}
	w.Reg, w.Filled, w.Phase = uint64(reg&mask), filled, phase
	return dst
}

// BytesFor returns how many more characters complete exactly grams
// (>= 1) more emitted n-grams, the last of them on the final character:
// the characters still needed to fill the register, the ones the
// subsample phase skips before the next emitted n-gram, and one
// subsample period per n-gram after it.
func (w *Window) BytesFor(grams int) int {
	sub := max(w.Subsample, 1)
	return w.N - 1 - w.Filled + (sub-w.Phase)%sub + (grams-1)*sub + 1
}

// checkN rejects an n-gram length outside 1..MaxN.
func checkN(n int) error {
	if n < 1 || n > MaxN {
		return fmt.Errorf("ngram: length %d out of range [1,%d]", n, MaxN)
	}
	return nil
}

// Extractor produces the stream of packed n-grams for a document. It is
// a software rendering of the hardware's character buffer: an input word
// containing multiple translated characters is buffered and an n-gram is
// generated at each character position (§3.3). The implementation is
// oblivious to word boundaries and treats the input as a continuous
// character stream, exactly like the hardware. Its state is one Window.
type Extractor struct {
	w Window
}

// NewExtractor returns an extractor for n-grams of length n (1..MaxN).
func NewExtractor(n int) (*Extractor, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	return &Extractor{w: Window{N: n, Subsample: 1}}, nil
}

// SetSubsample makes the extractor emit every s-th n-gram (s >= 1).
func (e *Extractor) SetSubsample(s int) error {
	if s < 1 {
		return fmt.Errorf("ngram: subsample factor %d must be >= 1", s)
	}
	e.w.Subsample = s
	return nil
}

// N returns the configured n-gram length.
func (e *Extractor) N() int { return e.w.N }

// Reset clears the sliding window, ready for a new document.
func (e *Extractor) Reset() { e.w.Reset() }

// Feed shifts the translated codes into the window and appends every
// complete n-gram to dst, returning the extended slice; see Window.Feed.
func (e *Extractor) Feed(dst []uint32, codes []alphabet.Code) []uint32 {
	return e.w.Feed(dst, codes)
}

// ExtractBytes translates raw ISO-8859-1 bytes and returns all packed
// n-grams of length n through Window.FeedBytes, the convenience path
// used by training and by the software classifier.
func ExtractBytes(text []byte, n int) ([]uint32, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	w := Window{N: n}
	return w.FeedBytes(make([]uint32, 0, Count(len(text), n)), text), nil
}

// Count returns the number of n-grams a document of length d characters
// produces: the sliding window emits one n-gram per position.
func Count(d, n int) int { return max(0, d-n+1) }

// Vocabulary numbers the distinct n-grams of one training run densely,
// in order of first sight, for all of the run's languages. Each
// language's Counter is then a slice of counts indexed by that number,
// so a language costs one count per n-gram the run has seen, not one
// per possible n-gram. Up to flatBits of packed width (n <= 4) the index
// from packed n-gram to number is a flat table, one per run, as wide as
// the vocabulary needs: uint16 numbers while the run has seen at most
// 65535 distinct n-grams (2 MiB at n = 4; at n <= 3 it never holds
// more), widened to uint32 in one pass by the first n-gram past that.
// Above flatBits the index is a map. Counting into a Vocabulary's
// Counters is not safe for concurrent use; once counting is done,
// ranking only reads, so its Counters may rank concurrently.
type Vocabulary struct {
	n       int
	index16 []uint16          // packed n-gram -> number+1 (0: unseen), while numbers fit 16 bits
	index32 []uint32          // the same index, once they do not
	ids     map[uint32]uint32 // packed n-gram -> number+1, above flatBits
	grams   []uint32          // number -> packed n-gram
	block   []uint32          // AddText's n-gram scratch
}

const (
	flatBits = 20
	// textBlock is the n-gram block AddText feeds a document through.
	textBlock = 4 << 10
)

// MaxTotal is the most n-grams one Counter counts: its counts are
// uint32, exact while the language's total stays within it, about
// 4 GiB of text per language per run. AddAll and AddText refuse a
// batch that would pass it, before counting any of it.
const MaxTotal = math.MaxUint32

// NewVocabulary returns an empty vocabulary of n-grams of length n.
func NewVocabulary(n int) (*Vocabulary, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	v := &Vocabulary{n: n, block: make([]uint32, textBlock)}
	if Bits(n) <= flatBits {
		v.index16 = make([]uint16, 1<<Bits(n))
	} else {
		v.ids = make(map[uint32]uint32)
	}
	return v, nil
}

// number appends g, not yet in the vocabulary, and returns its
// number+1, the value the index holds for it.
func (v *Vocabulary) number(g uint32) uint32 {
	v.grams = append(v.grams, g)
	return uint32(len(v.grams))
}

// widen copies the uint16 index into a uint32 one, for the vocabulary's
// 65536th n-gram.
func (v *Vocabulary) widen() {
	v.index32 = make([]uint32, len(v.index16))
	for g, id := range v.index16 {
		v.index32[g] = uint32(id)
	}
	v.index16 = nil
}

// Counter accumulates one language's n-gram frequencies for profile
// construction, indexed by its Vocabulary's numbering.
type Counter struct {
	v      *Vocabulary
	counts []uint32 // by n-gram number; may lag behind the vocabulary
	total  uint64
}

// NewCounter returns an empty Counter for one language over v.
func (v *Vocabulary) NewCounter() *Counter { return &Counter{v: v} }

// PresetTotal sets c's total as if total n-grams had been counted,
// with no counts behind them. It lets a test take a Counter to
// MaxTotal without 4 GiB of text.
func PresetTotal(c *Counter, total uint64) { c.total = total }

// AddAll increments the count of every n-gram in gs, numbering the ones
// the vocabulary has not seen yet. It refuses gs, counting none of it,
// if the total would pass MaxTotal.
func (c *Counter) AddAll(gs []uint32) error {
	if err := c.fits(len(gs)); err != nil {
		return err
	}
	c.add(gs)
	return nil
}

// add counts gs, which fit under MaxTotal.
func (c *Counter) add(gs []uint32) {
	v := c.v
	// Catch up with the numbers other languages added, so that each
	// number added below is the next element of counts.
	counts := append(c.counts, make([]uint32, len(v.grams)-len(c.counts))...)
	switch {
	case v.index16 != nil:
		var rest []uint32
		if counts, rest = addFlat(v, v.index16, counts, gs); len(rest) > 0 {
			v.widen()
			counts, _ = addFlat(v, v.index32, counts, rest)
		}
	case v.index32 != nil:
		counts, _ = addFlat(v, v.index32, counts, gs)
	default:
		for _, g := range gs {
			id := v.ids[g]
			if id == 0 {
				id = v.number(g)
				v.ids[g] = id
				counts = append(counts, 0)
			}
			counts[id-1]++
		}
	}
	c.counts = counts
	c.total += uint64(len(gs))
}

// addFlat counts gs through the flat index, numbering new n-grams,
// until an n-gram needs a number the index's type cannot hold; it
// returns the counts and the n-grams from that one on.
func addFlat[I uint16 | uint32](v *Vocabulary, index []I, counts, gs []uint32) ([]uint32, []uint32) {
	for i, g := range gs {
		id := index[g]
		if id == 0 {
			if len(v.grams) == int(^I(0)) {
				return counts, gs[i:]
			}
			id = I(v.number(g))
			index[g] = id
			counts = append(counts, 0)
		}
		counts[id-1]++
	}
	return counts, nil
}

// fits refuses grams more n-grams if they would take the total past
// MaxTotal.
func (c *Counter) fits(grams int) error {
	if c.total+uint64(grams) > MaxTotal {
		return fmt.Errorf("ngram: %d more n-grams would take the total of %d past %d, the most a Counter counts exactly", grams, c.total, uint64(MaxTotal))
	}
	return nil
}

// AddText counts the n-grams of one whole document, fed through
// Window.FeedBytes in blocks of the vocabulary's scratch. It refuses
// the document, counting none of it, if its n-grams would take the
// total past MaxTotal.
func (c *Counter) AddText(text []byte) error {
	if err := c.fits(Count(len(text), c.v.n)); err != nil {
		return err
	}
	w := Window{N: c.v.n}
	for len(text) > 0 {
		k := min(len(text), len(c.v.block))
		c.add(w.FeedBytes(c.v.block[:0], text[:k]))
		text = text[k:]
	}
	return nil
}

// Total returns the number of n-grams accumulated.
func (c *Counter) Total() uint64 { return c.total }

// Top returns the t most frequent n-grams in descending count order.
// Ties break on the packed n-gram value so results are deterministic.
// If fewer than t distinct n-grams were seen, all of them are returned.
// It selects the t-th best count in a pass or two over the counts and
// sorts only the t winners. Top only reads the counter and its
// vocabulary, so once counting is done the Counters of one Vocabulary
// may rank concurrently.
func (c *Counter) Top(t int) []Entry[uint32] {
	return rank(new(scratch[uint32]), c.v.grams, c.counts, t)
}
