// Package ngram implements n-gram extraction, counting, ranking and
// language profiles for the Bloom-filter language classifier.
//
// An n-gram is a sequence of exactly n characters; n-grams are extracted
// from a document by a sliding window that shifts one character at a
// time (paper §1). After alphabet conversion each character is a 5-bit
// code, so a 4-gram packs into 20 bits and is carried as a uint32
// throughout the pipeline — the same word the hardware datapath carries.
//
// A training run numbers its n-grams once in a Vocabulary and counts
// each language in a Counter over it; a Ranker then keeps each
// language's t most frequently occurring n-grams as its Profile (t =
// 5,000 in the paper's implementation, §4), which the HAIL authors
// found produces over 99% classifier accuracy.
package ngram

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"unsafe"
	"weak"

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

// Window is the n-gram shift register of one document in flight: the
// hardware's character buffer (§3.3), held as a value the caller
// carries from one chunk of the document to the next, so an n-gram that
// straddles a chunk boundary is still emitted exactly once. It emits
// every n-gram. N configures it; Reg and Filled are its state, empty
// after Reset. The state fields are exported so that a counting kernel
// outside this package can run its own fused translate-and-shift loop
// over them.
type Window struct {
	// N is the n-gram length, 1..MaxN.
	N int
	// Reg holds the most recent codes, newest in the low alphabet.Bits
	// bits. Only the low Bits(N) bits are an n-gram; a kernel may leave
	// older codes above them.
	Reg uint64
	// Filled counts the codes shifted in, saturating at N-1: from then
	// on every code completes an n-gram.
	Filled int
}

// Reset clears the register, ready for a new document. The hardware
// equivalent is the End-of-Document command clearing the character
// buffer.
func (w *Window) Reset() { w.Reg, w.Filled = 0, 0 }

// Feed shifts the translated codes into the window and appends every
// complete n-gram to dst, returning the extended slice. A document of d
// characters yields exactly max(0, d-n+1) n-grams.
func (w *Window) Feed(dst []uint32, codes []alphabet.Code) []uint32 {
	reg, filled := uint32(w.Reg), w.Filled
	warm, mask := w.N-1, uint32(uint64(1)<<Bits(w.N)-1)
	for _, c := range codes {
		reg = (reg<<alphabet.Bits | uint32(c)) & mask
		if filled < warm {
			filled++
			continue
		}
		dst = append(dst, reg)
	}
	w.Reg, w.Filled = uint64(reg), filled
	return dst
}

// FeedBytes is Feed over raw ISO-8859-1 bytes, translating each one on
// the way in: the translate and shift stages of the datapath in one
// loop, with no code buffer between them. The register's warm-up takes
// it byte by byte; once the register is full each byte completes one
// n-gram, so the rest grows dst once and writes by index, with no
// branch per byte.
func (w *Window) FeedBytes(dst []uint32, p []byte) []uint32 {
	reg, filled := uint32(w.Reg), w.Filled
	i := 0
	for ; i < len(p) && filled < w.N-1; i++ {
		reg = reg<<alphabet.Bits | uint32(alphabet.Translate(p[i]))
		filled++
	}
	rest := p[i:]
	k := len(dst)
	dst = slices.Grow(dst, len(rest))[:k+len(rest)]
	out := dst[k:][:len(rest)]
	mask := uint32(uint64(1)<<Bits(w.N) - 1)
	for j, b := range rest {
		reg = reg<<alphabet.Bits | uint32(alphabet.Translate(b))
		out[j] = reg & mask
	}
	w.Reg, w.Filled = uint64(reg&mask), filled
	return dst
}

// BytesFor returns how many more characters complete exactly grams
// (>= 1) more n-grams, the last of them on the final character: the
// characters still needed to fill the register, then one per n-gram.
func (w *Window) BytesFor(grams int) int {
	return w.N - 1 - w.Filled + grams
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
// character stream, exactly like the hardware. Its state is one Window
// and, for the paper models, HAIL's input subsampling: the factor and
// the position in its cycle, carried across Feed calls like the
// register.
type Extractor struct {
	w     Window
	sub   int // emit every sub-th n-gram; full rate when <= 1
	phase int // position of the next n-gram in the cycle, emitted at 0
}

// NewExtractor returns an extractor for n-grams of length n (1..MaxN).
func NewExtractor(n int) (*Extractor, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	return &Extractor{w: Window{N: n}, sub: 1}, nil
}

// SetSubsample makes the extractor emit every s-th n-gram (s >= 1), the
// bandwidth-reduction technique HAIL uses and §3.3 mentions as an
// option when on-chip memory bandwidth is limited.
func (e *Extractor) SetSubsample(s int) error {
	if s < 1 {
		return fmt.Errorf("ngram: subsample factor %d must be >= 1", s)
	}
	e.sub = s
	return nil
}

// N returns the configured n-gram length.
func (e *Extractor) N() int { return e.w.N }

// Reset clears the sliding window and the subsample cycle, ready for a
// new document.
func (e *Extractor) Reset() { e.w.Reset(); e.phase = 0 }

// Feed shifts the translated codes into the window and appends every
// complete n-gram the subsample cycle keeps to dst, returning the
// extended slice; see Window.Feed.
func (e *Extractor) Feed(dst []uint32, codes []alphabet.Code) []uint32 {
	k := len(dst)
	dst = e.w.Feed(dst, codes)
	if e.sub <= 1 {
		return dst
	}
	kept := dst[:k]
	for _, g := range dst[k:] {
		if e.phase == 0 {
			kept = append(kept, g)
		}
		if e.phase++; e.phase == e.sub {
			e.phase = 0
		}
	}
	return kept
}

// ExtractBytes translates raw ISO-8859-1 bytes and returns all packed
// n-grams of length n through Window.FeedBytes: the whole-document
// reference the tests and fuzzers check the counting loops against.
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
// from packed n-gram to number is a flat table as wide as the
// vocabulary needs: a NewTable of uint16 numbers while the run has seen
// at most 65535 distinct n-grams (2 MiB at n = 4), widened to uint32
// in one pass by the first n-gram past that; above flatBits it is a
// map. Counting writes only the index and the counts; ranking inverts
// the index into the n-grams by number. Release ends counting and
// hands the uint16 table back to NewTable, for the direct-lookup
// serving plane built next. Counting is not safe for concurrent use;
// once the Vocabulary is released, its Counters may rank concurrently.
type Vocabulary struct {
	n       int
	size    int               // n-grams numbered
	index16 []uint16          // packed n-gram -> number+1 (0: unseen), while numbers fit 16 bits
	index32 []uint32          // the same index, once they do not
	ids     map[uint32]uint32 // packed n-gram -> number+1, above flatBits
	grams   []uint32          // number -> packed n-gram, inverted from the index by numbered
}

const flatBits = 20

// MaxTotal is the most n-grams one Counter counts: its counts are
// uint32, exact while the language's total stays within it, about
// 4 GiB of text per language per run. AddBytes refuses the bytes that
// would take a language past it, before counting any of them.
const MaxTotal = math.MaxUint32

// NewVocabulary returns an empty vocabulary of n-grams of length n.
func NewVocabulary(n int) (*Vocabulary, error) {
	if err := checkN(n); err != nil {
		return nil, err
	}
	v := &Vocabulary{n: n}
	if Bits(n) <= flatBits {
		v.index16 = NewTable(Bits(n))
	} else {
		v.ids = make(map[uint32]uint32)
	}
	return v, nil
}

// spare is the one flat table handed back and not yet taken, held
// weakly: if no NewTable takes it, the next collection frees it.
var spare atomic.Pointer[weak.Pointer[[]uint16]]

// NewTable returns a zeroed table of one uint16 per packed n-gram of
// width bits: a Vocabulary's flat index, or a direct-lookup serving
// plane. It takes the table the last Release handed back when the
// sizes match, so training and then serving fault its pages in once.
func NewTable(bits uint) []uint16 {
	if wp := spare.Load(); wp != nil {
		if t := wp.Value(); t != nil && len(*t) == 1<<bits && spare.CompareAndSwap(wp, nil) {
			clear(*t)
			return *t
		}
	}
	return make([]uint16, 1<<bits)
}

// Release ends counting into v and drops its index, handing a uint16
// table back to NewTable; v's Counters may still rank, but not count.
func (v *Vocabulary) Release() {
	v.numbered()
	if t := v.index16; t != nil {
		wp := weak.Make(&t) // &t is a header of its own, so v does not hold it
		spare.Store(&wp)
	}
	v.index16, v.index32, v.ids = nil, nil, nil
}

// number numbers one more n-gram and returns its number+1, the value
// the index holds for it.
func (v *Vocabulary) number() uint32 {
	v.size++
	return uint32(v.size)
}

// numbered returns the n-grams by number, inverting the index when
// counting has numbered more since.
func (v *Vocabulary) numbered() []uint32 {
	if len(v.grams) < v.size {
		v.grams = make([]uint32, v.size)
		invert(v.grams, v.index16)
		invert(v.grams, v.index32)
		for g, id := range v.ids {
			v.grams[id-1] = g
		}
	}
	return v.grams
}

// invert writes each n-gram of a flat index at its number in grams.
// The index is mostly unseen (zero) entries, so it is read eight bytes
// at a time and only nonzero words are looked into; its length, a
// power of two of at least 32 entries, is a whole number of words.
func invert[I uint16 | uint32](grams []uint32, index []I) {
	per := 8 / int(unsafe.Sizeof(I(0)))
	words := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(index))), len(index)/per)
	for w, word := range words {
		if word == 0 {
			continue
		}
		for g := w * per; g < (w+1)*per; g++ {
			if id := index[g]; id != 0 {
				grams[id-1] = uint32(g)
			}
		}
	}
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

// AddBytes counts the n-grams the ISO-8859-1 bytes of p complete in
// the window w, numbering new ones: w.FeedBytes turns a block of bytes
// at a time into n-grams, and AddBytes only indexes and counts them.
// The caller carries w, of the vocabulary's n and keeping every
// n-gram, from one piece of a document to the next. AddBytes refuses
// p, counting none of it, if its n-grams would take the total past
// MaxTotal.
func (c *Counter) AddBytes(w *Window, p []byte) error {
	v := c.v
	grams := Count(w.Filled+len(p), v.n)
	if err := c.fits(grams); err != nil {
		return err
	}
	// Catch up with the numbers other languages added, so that each
	// number added below is the next element of counts.
	counts := grow(c.counts, v.size-len(c.counts))
	var block [256]uint32
	for len(p) > 0 {
		k := min(len(p), len(block))
		gs := w.FeedBytes(block[:0], p[:k])
		p = p[k:]
		// The uint16 index counts until an n-gram needs a wider number,
		// the uint32 one the rest; a map vocabulary has neither and
		// counts all.
		if counts, gs = countFlat(v, v.index16, counts, gs); len(gs) > 0 && v.index16 != nil {
			v.widen()
		}
		counts, gs = countFlat(v, v.index32, counts, gs)
		for _, g := range gs {
			id := v.ids[g]
			if id == 0 {
				id = v.number()
				v.ids[g] = id
				counts = grow(counts, 1)
			}
			counts[id-1]++
		}
	}
	c.counts = counts
	c.total += uint64(grams)
	return nil
}

// countFlat counts the n-grams gs through the flat index until one
// needs a number I cannot hold; it returns the counts and the n-grams
// from that one on: all of gs for no index.
func countFlat[I uint16 | uint32](v *Vocabulary, index []I, counts, gs []uint32) ([]uint32, []uint32) {
	if index == nil {
		return counts, gs
	}
	for i, g := range gs {
		id := index[g]
		if id == 0 {
			if v.size == int(^I(0)) {
				return counts, gs[i:]
			}
			id = I(v.number())
			index[g] = id
			counts = grow(counts, 1)
		}
		counts[id-1]++
	}
	return counts, nil
}

// grow returns counts k zero counts longer, moving past its capacity to
// a quarter more than it needs: one allocation for a language that
// starts late, with room for the n-grams it adds.
func grow(counts []uint32, k int) []uint32 {
	if n := len(counts) + k; n > cap(counts) {
		counts = append(make([]uint32, 0, n+n/4), counts...)
	}
	return counts[:len(counts)+k]
}

// fits refuses grams more n-grams if they would take the total past
// MaxTotal.
func (c *Counter) fits(grams int) error {
	if c.total+uint64(grams) > MaxTotal {
		return fmt.Errorf("ngram: %d more n-grams would take the total of %d past %d, the most a Counter counts exactly", grams, c.total, uint64(MaxTotal))
	}
	return nil
}

// Total returns the number of n-grams accumulated.
func (c *Counter) Total() uint64 { return c.total }
