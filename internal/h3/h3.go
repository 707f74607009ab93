// Package h3 implements the H3 family of hash functions of Ramakrishna,
// Fu and Bahcekapili, "Efficient hardware hashing functions for high
// performance computers" (IEEE Trans. Computers 46, 1997), which the
// paper (§3.1) uses inside its Parallel Bloom Filters because the family
// is "hardware friendly": evaluating a member is a tree of XOR gates.
//
// An H3 function from b input bits to w output bits is defined by a
// random b×w bit matrix Q. The hash of x is the XOR of the rows of Q
// selected by the set bits of x:
//
//	h(x) = XOR over i of Q[i] where bit i of x is 1.
//
// Every member is linear over GF(2): h(x XOR y) = h(x) XOR h(y), a
// property the tests verify and which makes incremental hashing cheap.
package h3

import (
	"fmt"
	"math/rand"
)

// MaxInputBits is the widest input this implementation accepts. Packed
// 4-grams of 5-bit characters need 20 bits; the §3.3 Unicode extension
// packs 4-grams of 16-bit characters into 64. Only the width of the
// XOR tree changes, so one function type serves both alphabets: Hash
// takes the narrow words, Hash64 the wide ones.
const MaxInputBits = 64

// Func is one member of the H3 family: a hash from inputBits-wide words
// to values in [0, 1<<outputBits).
type Func struct {
	rows       [MaxInputBits]uint32
	inputBits  uint
	outputBits uint
	mask       uint32
	// tab holds byte-chunk lookup tables: because H3 is linear over
	// GF(2), h(x) decomposes exactly into the XOR of one table lookup
	// per input byte. This is the software analogue of the hardware
	// XOR tree evaluating all input bits in parallel, and it makes the
	// software classifier's hot path four table lookups per hash
	// instead of a twenty-iteration bit loop. Tables past the input
	// width are all zero.
	tab [MaxInputBits / 8][256]uint32
}

// New constructs an H3 function with the given input and output widths,
// drawing the matrix rows from rng. Output widths up to 32 bits are
// supported.
func New(inputBits, outputBits uint, rng *rand.Rand) (*Func, error) {
	if inputBits == 0 || inputBits > MaxInputBits {
		return nil, fmt.Errorf("h3: input width %d out of range [1,%d]", inputBits, MaxInputBits)
	}
	if outputBits == 0 || outputBits > 32 {
		return nil, fmt.Errorf("h3: output width %d out of range [1,32]", outputBits)
	}
	f := &Func{
		inputBits:  inputBits,
		outputBits: outputBits,
		mask:       uint32(uint64(1)<<outputBits - 1),
	}
	for i := uint(0); i < inputBits; i++ {
		f.rows[i] = rng.Uint32() & f.mask
	}
	// Build the byte-chunk tables. Rows beyond the input width stay
	// zero, so bits of x above the input width contribute nothing.
	for chunk := range f.tab {
		for v := 1; v < 256; v++ {
			var h uint32
			for b := uint(0); b < 8; b++ {
				if v&(1<<b) != 0 {
					h ^= f.rows[chunk*8+int(b)]
				}
			}
			f.tab[chunk][v] = h
		}
	}
	return f, nil
}

// Hash evaluates the function on x. Bits of x above the input width are
// ignored, mirroring the fixed wiring of the hardware XOR tree.
func (f *Func) Hash(x uint32) uint32 {
	return f.tab[0][x&0xFF] ^
		f.tab[1][x>>8&0xFF] ^
		f.tab[2][x>>16&0xFF] ^
		f.tab[3][x>>24]
}

// Hash64 evaluates the function on a word of up to 64 bits, the packed
// wide n-gram of §3.3. Bits above the input width are ignored, so
// Hash64(uint64(x)) == Hash(x) for every x.
func (f *Func) Hash64(x uint64) uint32 {
	return f.Hash(uint32(x)) ^
		f.tab[4][x>>32&0xFF] ^
		f.tab[5][x>>40&0xFF] ^
		f.tab[6][x>>48&0xFF] ^
		f.tab[7][x>>56]
}

// InputBits returns the configured input width.
func (f *Func) InputBits() uint { return f.inputBits }

// OutputBits returns the configured output width.
func (f *Func) OutputBits() uint { return f.outputBits }

// Row returns row i of the defining matrix, for inspection and tests.
func (f *Func) Row(i uint) uint32 {
	if i >= f.inputBits {
		panic(fmt.Sprintf("h3: row %d out of range [0,%d)", i, f.inputBits))
	}
	return f.rows[i]
}

// Family is an ordered set of k independent H3 functions sharing input
// and output widths — the "k hash functions" block of Figure 1.
type Family struct {
	funcs []*Func
}

// NewFamily draws k independent functions using a deterministic stream
// seeded by seed, so that a software classifier and a simulated hardware
// classifier built with the same seed use identical hash matrices.
func NewFamily(k int, inputBits, outputBits uint, seed int64) (*Family, error) {
	if k <= 0 {
		return nil, fmt.Errorf("h3: family size %d must be positive", k)
	}
	rng := rand.New(rand.NewSource(seed))
	fam := &Family{funcs: make([]*Func, k)}
	for i := range fam.funcs {
		f, err := New(inputBits, outputBits, rng)
		if err != nil {
			return nil, err
		}
		fam.funcs[i] = f
	}
	return fam, nil
}

// K returns the number of functions in the family.
func (fam *Family) K() int { return len(fam.funcs) }

// Func returns function i of the family.
func (fam *Family) Func(i int) *Func { return fam.funcs[i] }
