// Package bloom implements the Parallel Bloom Filter of Krishnamurthy
// et al. that the paper's hardware architecture instantiates (§3.1),
// with the closed-form false positive rates of it and of the classic
// single-vector Bloom filter (Bloom, CACM 1970) it is compared with.
//
// In the parallel variant each of the k hash functions addresses an
// independent 1×m bit-vector implemented with one or more physically
// distinct embedded RAMs, so all k lookups proceed in the same clock
// cycle despite the finite number of ports on each RAM. A Bloom filter
// never produces false negatives; false positives occur at rate
// f = (1 − e^(−N/m))^k for the parallel variant with N programmed
// elements (§3.1).
//
// One Parallel serves both alphabets. The §3.3 Unicode extension only
// widens the hash input: Program and Test take the packed n-grams of
// the 5-bit alphabet, Program64 and Test64 the up-to-64-bit n-grams of
// the 16-bit one, through the same k vectors.
package bloom

import (
	"fmt"
	"math"
	"math/bits"

	"bloomlang/internal/h3"
)

// BitVector is a 1×m bit-vector backed by 64-bit words, the software
// stand-in for a group of embedded RAM blocks.
type BitVector struct {
	words []uint64
	m     uint32
}

// NewBitVector returns an all-zero vector of m bits.
func NewBitVector(m uint32) *BitVector {
	if m == 0 {
		panic("bloom: zero-length bit-vector")
	}
	return &BitVector{words: make([]uint64, (m+63)/64), m: m}
}

// Len returns the vector length in bits.
func (v *BitVector) Len() uint32 { return v.m }

// Set sets bit i to 1.
func (v *BitVector) Set(i uint32) {
	if i >= v.m {
		v.outOfRange(i)
	}
	v.words[i>>6] |= 1 << (i & 63)
}

// Get returns bit i.
func (v *BitVector) Get(i uint32) bool {
	if i >= v.m {
		v.outOfRange(i)
	}
	return v.words[i>>6]&(1<<(i&63)) != 0
}

// outOfRange panics for bit i. It is kept out of line so that Get and
// Set, without the message formatting, are small enough to inline into
// the membership loops.
//
//go:noinline
func (v *BitVector) outOfRange(i uint32) {
	panic(fmt.Sprintf("bloom: bit %d out of range [0,%d)", i, v.m))
}

// Reset clears every bit, the hardware's bit-vector reset step
// (Algorithm 1, line 4).
func (v *BitVector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// PopCount returns the number of set bits, used to estimate load and in
// tests.
func (v *BitVector) PopCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Parallel is the Parallel Bloom Filter of §3.1: k hash functions of the
// hardware-friendly H3 family, each referencing its own 1×m bit-vector.
// One Parallel Bloom Filter stores the n-gram profile of one language.
type Parallel struct {
	family  *h3.Family
	vectors []*BitVector
	m       uint32
	n       int // number of elements programmed
}

// NewParallel builds a filter with k hash functions over inputBits-wide
// elements and k independent m-bit vectors. m must be a power of two so
// a hash output addresses the vector directly, as in the hardware where
// the address lines of the embedded RAM are driven straight from the
// XOR tree.
func NewParallel(k int, inputBits uint, m uint32, seed int64) (*Parallel, error) {
	if m == 0 || m&(m-1) != 0 {
		return nil, fmt.Errorf("bloom: vector length %d is not a power of two", m)
	}
	outputBits := uint(0)
	for 1<<outputBits < m {
		outputBits++
	}
	family, err := h3.NewFamily(k, inputBits, outputBits, seed)
	if err != nil {
		return nil, err
	}
	p := &Parallel{
		family:  family,
		vectors: make([]*BitVector, k),
		m:       m,
	}
	for i := range p.vectors {
		p.vectors[i] = NewBitVector(m)
	}
	return p, nil
}

// K returns the number of hash functions.
func (p *Parallel) K() int { return p.family.K() }

// M returns the per-vector length in bits.
func (p *Parallel) M() uint32 { return p.m }

// N returns the number of elements programmed since the last Reset.
func (p *Parallel) N() int { return p.n }

// Program sets the bits for element g in every vector — Algorithm 1's
// Set procedure applied to one n-gram.
func (p *Parallel) Program(g uint32) {
	for i, v := range p.vectors {
		v.Set(p.family.Func(i).Hash(g))
	}
	p.n++
}

// ProgramAll programs every element of a profile.
func (p *Parallel) ProgramAll(gs []uint32) {
	for _, g := range gs {
		p.Program(g)
	}
}

// Test reports whether g may be a member: the bitwise AND of the bit
// values at each hash address (Algorithm 1's Test procedure). A true
// result may be a false positive; a false result is definitive.
func (p *Parallel) Test(g uint32) bool {
	for i, v := range p.vectors {
		if !v.Get(p.family.Func(i).Hash(g)) {
			return false
		}
	}
	return true
}

// Program64 is Program for a wide element of up to 64 bits, the
// packed n-gram of the §3.3 Unicode extension.
func (p *Parallel) Program64(g uint64) {
	for i, v := range p.vectors {
		v.Set(p.family.Func(i).Hash64(g))
	}
	p.n++
}

// Test64 is Test for a wide element of up to 64 bits.
func (p *Parallel) Test64(g uint64) bool {
	for i, v := range p.vectors {
		if !v.Get(p.family.Func(i).Hash64(g)) {
			return false
		}
	}
	return true
}

// Reset clears all vectors and the programmed-element count.
func (p *Parallel) Reset() {
	for _, v := range p.vectors {
		v.Reset()
	}
	p.n = 0
}

// FalsePositiveRate returns the filter's expected false positive rate at
// its current load, using the paper's model f = (1 − e^(−N/m))^k.
func (p *Parallel) FalsePositiveRate() float64 {
	return FalsePositiveRate(p.n, p.m, p.K())
}

// Vector returns vector i, for tests and for the simulator's
// RAM-accounting.
func (p *Parallel) Vector(i int) *BitVector { return p.vectors[i] }

// Hash returns hash function i applied to g — the address the hardware
// drives onto RAM i's address lines. Exposed for the RTL pipeline
// model, which stages hashing and RAM reads in separate cycles.
func (p *Parallel) Hash(i int, g uint32) uint32 { return p.family.Func(i).Hash(g) }

// Func returns hash function i itself, exposing the H3 matrix to the
// VHDL generator (which instantiates each function as an XOR tree with
// the matrix baked into the netlist).
func (p *Parallel) Func(i int) *h3.Func { return p.family.Func(i) }

// FalsePositiveRate is the paper's §3.1 model for the Parallel Bloom
// Filter: each of the k vectors holds N elements in m bits, a lookup
// succeeds spuriously only if all k independent vectors have the
// addressed bit set: f = (1 − e^(−N/m))^k.
func FalsePositiveRate(n int, m uint32, k int) float64 {
	if n <= 0 {
		return 0
	}
	p := 1 - math.Exp(-float64(n)/float64(m))
	return math.Pow(p, float64(k))
}

// ClassicFalsePositiveRate is the standard single-vector model
// (1 − e^(−kN/m))^k: k hash functions share one m-bit vector. The
// hardware cannot use that layout (a single embedded RAM has only two
// ports, so k>2 lookups per cycle need replication); the rate is the
// §3.1 comparison at the same total bit budget.
func ClassicFalsePositiveRate(n int, m uint32, k int) float64 {
	if n <= 0 {
		return 0
	}
	p := 1 - math.Exp(-float64(k)*float64(n)/float64(m))
	return math.Pow(p, float64(k))
}

// PerThousand converts a rate to the "false positives per thousand"
// unit Table 1 reports, rounded to the nearest integer.
func PerThousand(f float64) int {
	return int(math.Round(f * 1000))
}
