package h3

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, in, out uint, seed int64) *Func {
	t.Helper()
	f, err := New(in, out, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("New(%d,%d): %v", in, out, err)
	}
	return f
}

// Each property below is one check over a Func of any width, run at the
// paper's 20-bit packed 4-gram and at the 48- and 64-bit inputs of the
// §3.3 Unicode extension (3- and 4-grams of 16-bit characters).

// wideMask is the mask of the input bits of f, as a 64-bit word.
func wideMask(f *Func) uint64 {
	if f.InputBits() == 64 {
		return ^uint64(0)
	}
	return 1<<f.InputBits() - 1
}

// rowHash is the defining formulation: the XOR of the rows selected by
// the set bits of x.
func rowHash(f *Func, x uint64) uint32 {
	var h uint32
	for i := uint(0); i < f.InputBits(); i++ {
		if x&(1<<i) != 0 {
			h ^= f.Row(i)
		}
	}
	return h
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ in, out uint }{
		{0, 14}, {65, 14}, {20, 0}, {20, 33},
	} {
		if _, err := New(c.in, c.out, rng); err == nil {
			t.Errorf("New(%d,%d) succeeded, want error", c.in, c.out)
		}
	}
	if _, err := New(20, 14, rng); err != nil {
		t.Errorf("New(20,14): %v", err)
	}
}

func TestNew64Validation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ in, out uint }{{48, 0}, {48, 33}, {65, 14}} {
		if _, err := New(c.in, c.out, rng); err == nil {
			t.Errorf("New(%d,%d) succeeded, want error", c.in, c.out)
		}
	}
	for _, in := range []uint{33, 48, 64} {
		if _, err := New(in, 14, rng); err != nil {
			t.Errorf("New(%d,14): %v", in, err)
		}
	}
}

func checkZeroToZero(t *testing.T, f *Func) {
	t.Helper()
	if f.Hash(0) != 0 || f.Hash64(0) != 0 {
		t.Errorf("%d-bit Hash(0) = %d, Hash64(0) = %d, want 0 (H3 is linear)", f.InputBits(), f.Hash(0), f.Hash64(0))
	}
}

func TestZeroHashesToZero(t *testing.T) { checkZeroToZero(t, mustNew(t, 20, 14, 42)) }

func TestFunc64ZeroToZero(t *testing.T) { checkZeroToZero(t, mustNew(t, 64, 12, 11)) }

// H3 is linear over GF(2): h(x^y) = h(x)^h(y). This is the defining
// property of the family and must hold for every member, through both
// Hash and Hash64.
func checkLinearity(t *testing.T, f *Func) {
	t.Helper()
	prop := func(x, y uint64) bool {
		x32, y32 := uint32(x), uint32(y)
		return f.Hash64(x^y) == f.Hash64(x)^f.Hash64(y) &&
			f.Hash(x32^y32) == f.Hash(x32)^f.Hash(y32)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("%d-bit function: %v", f.InputBits(), err)
	}
}

func TestLinearity(t *testing.T) { checkLinearity(t, mustNew(t, 20, 14, 7)) }

func TestFunc64Linearity(t *testing.T) {
	checkLinearity(t, mustNew(t, 48, 14, 7))
	checkLinearity(t, mustNew(t, 64, 14, 7))
}

// The chunk-table evaluation must agree with the defining bit-loop
// formulation for every input.
func checkTableMatchesRows(t *testing.T, f *Func) {
	t.Helper()
	prop := func(x uint64) bool { return f.Hash64(x) == rowHash(f, x) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Errorf("%d-bit function: %v", f.InputBits(), err)
	}
}

func TestTableDecompositionExact(t *testing.T) { checkTableMatchesRows(t, mustNew(t, 20, 14, 31)) }

func TestFunc64TableMatchesRows(t *testing.T) {
	checkTableMatchesRows(t, mustNew(t, 48, 14, 3))
	checkTableMatchesRows(t, mustNew(t, 64, 14, 3))
}

// Hash64 on a narrow word is Hash: the wide tables above bit 31 add
// nothing, so the narrow path can keep its four lookups.
func TestHash64NarrowAgreement(t *testing.T) {
	for _, in := range []uint{1, 20, 32, 48, 64} {
		f := mustNew(t, in, 14, int64(in))
		prop := func(x uint32) bool { return f.Hash64(uint64(x)) == f.Hash(x) }
		if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%d-bit function: %v", in, err)
		}
	}
}

// hash64Golden pins the wide hashes bit for bit: two-member families
// drawn by NewFamily, hashed over hash64Inputs. The values were
// recorded from the 64-bit H3 type that served the Unicode extension
// before it was folded into Func, so the seeded row order is unchanged.
var hash64Inputs = []uint64{0, 1, 0x8000, 0xFFFF, 0x123456789A, 0xFFFFFFFFFFFF, 0xDEADBEEFCAFEF00D, 1 << 63, 0x0001000200030004}

var hash64Golden = []struct {
	in, out uint
	seed    int64
	want    [2][9]uint32
}{
	{48, 14, 11, [2][9]uint32{
		{0x0, 0x1130, 0x2bea, 0x3e08, 0xebe, 0x10f3, 0x1536, 0x0, 0x3f07},
		{0x0, 0x2960, 0x111b, 0xa11, 0x1d75, 0x2717, 0x2ffd, 0x0, 0x169},
	}},
	{64, 14, 12, [2][9]uint32{
		{0x0, 0x32d3, 0x2feb, 0x5bd, 0x10da, 0x1a0b, 0xa2b, 0x3915, 0x2c15},
		{0x0, 0x1550, 0x1da3, 0x3e5d, 0x4a6, 0x38d, 0x39df, 0xb76, 0x287d},
	}},
	{64, 32, 13, [2][9]uint32{
		{0x0, 0x33d615d0, 0xf2039a69, 0x2bc029c1, 0xde0ed936, 0x2300de76, 0xfc56da52, 0x4ebccff6, 0x8d047236},
		{0x0, 0xaef6c4df, 0xc59779e0, 0xd71b4421, 0x245aa067, 0x2823f2f5, 0x670e5528, 0xca6082e1, 0x4ea30b97},
	}},
}

func TestHash64Golden(t *testing.T) {
	for _, g := range hash64Golden {
		fam, err := NewFamily(2, g.in, g.out, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range g.want {
			for j, x := range hash64Inputs {
				if got := fam.Func(i).Hash64(x); got != want[j] {
					t.Errorf("%d->%d bits seed %d member %d: Hash64(%#x) = %#x, want %#x", g.in, g.out, g.seed, i, x, got, want[j])
				}
			}
		}
	}
}

// FuzzHash64 checks any width's Hash64 against its definition:
// linearity, the byte tables against the rows, and agreement with Hash
// on narrow words.
func FuzzHash64(f *testing.F) {
	f.Add(int64(1), uint8(19), uint64(0xABCDE), uint64(0x12345))
	f.Add(int64(9), uint8(47), uint64(0xDEADBEEFCAFE), uint64(1)<<47)
	f.Add(int64(3), uint8(63), ^uint64(0), uint64(0x0001000200030004))
	f.Fuzz(func(t *testing.T, seed int64, width uint8, x, y uint64) {
		fn := mustNew(t, uint(width)%MaxInputBits+1, 14, seed)
		if fn.Hash64(x^y) != fn.Hash64(x)^fn.Hash64(y) {
			t.Fatalf("%d-bit function not linear at %#x, %#x", fn.InputBits(), x, y)
		}
		if got, want := fn.Hash64(x), rowHash(fn, x&wideMask(fn)); got != want {
			t.Fatalf("%d-bit Hash64(%#x) = %#x, rows give %#x", fn.InputBits(), x, got, want)
		}
		if fn.Hash64(uint64(uint32(x))) != fn.Hash(uint32(x)) {
			t.Fatalf("%d-bit Hash64 and Hash disagree on %#x", fn.InputBits(), uint32(x))
		}
	})
}

func TestSingleBitInputsReturnRows(t *testing.T) {
	for _, in := range []uint{20, 64} {
		f := mustNew(t, in, 14, 3)
		for i := uint(0); i < in; i++ {
			if got, want := f.Hash64(1<<i), f.Row(i); got != want {
				t.Errorf("%d-bit Hash64(1<<%d) = %#x, want row value %#x", in, i, got, want)
			}
		}
	}
}

func checkOutputMasked(t *testing.T, f *Func, step uint64) {
	t.Helper()
	for x := uint64(0); x < 4096; x++ {
		if h := f.Hash64(x * step); h >= 1<<f.OutputBits() {
			t.Fatalf("%d-bit Hash64(%#x) = %d exceeds %d-bit range", f.InputBits(), x*step, h, f.OutputBits())
		}
	}
}

func TestOutputMasked(t *testing.T) { checkOutputMasked(t, mustNew(t, 20, 10, 11), 1) }

func TestFunc64OutputMasked(t *testing.T) {
	checkOutputMasked(t, mustNew(t, 64, 10, 2), 0x9E3779B97F4A7C15)
}

// With only the input width wired, the bits above it must contribute
// nothing, through either entry point.
func checkHighBitsIgnored(t *testing.T, f *Func) {
	t.Helper()
	lo := wideMask(f)
	prop := func(x uint64) bool {
		return f.Hash64(x&lo) == f.Hash64(x|^lo) &&
			f.Hash(uint32(x&lo)) == f.Hash(uint32(x|^lo))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("%d-bit function: %v", f.InputBits(), err)
	}
}

func TestHighBitsIgnored(t *testing.T) { checkHighBitsIgnored(t, mustNew(t, 20, 14, 5)) }

func TestFunc64HighBitsIgnored(t *testing.T) { checkHighBitsIgnored(t, mustNew(t, 48, 14, 5)) }

func TestDeterministicForSeed(t *testing.T) {
	a := mustNew(t, 20, 14, 99)
	b := mustNew(t, 20, 14, 99)
	for x := uint32(0); x < 1000; x++ {
		if a.Hash(x) != b.Hash(x) {
			t.Fatalf("same seed produced different functions at x=%d", x)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := mustNew(t, 20, 14, 1)
	b := mustNew(t, 20, 14, 2)
	same := 0
	const n = 1000
	for x := uint32(1); x <= n; x++ {
		if a.Hash(x) == b.Hash(x) {
			same++
		}
	}
	// Two independent 14-bit hashes agree with probability 2^-14; seeing
	// more than a handful of agreements in 1000 trials means the seeds
	// were not independent.
	if same > 5 {
		t.Errorf("functions from different seeds agreed on %d/%d inputs", same, n)
	}
}

// A crude uniformity check: hashing a counter sequence into 256 buckets
// should not leave any bucket empty or grossly overloaded.
func TestRoughUniformity(t *testing.T) {
	f := mustNew(t, 20, 8, 12345)
	var buckets [256]int
	const n = 1 << 16
	for x := uint32(0); x < n; x++ {
		buckets[f.Hash(x)]++
	}
	want := n / 256
	for i, got := range buckets {
		if got < want/2 || got > want*2 {
			t.Errorf("bucket %d has %d entries, want within [%d,%d]", i, got, want/2, want*2)
		}
	}
}

func checkRowPanics(t *testing.T, f *Func) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("Row(%d) did not panic", f.InputBits())
		}
	}()
	f.Row(f.InputBits())
}

func TestRowPanicsOutOfRange(t *testing.T) { checkRowPanics(t, mustNew(t, 20, 14, 8)) }

func TestFunc64RowPanics(t *testing.T) { checkRowPanics(t, mustNew(t, 48, 14, 8)) }

// checkFamily builds a k-member family and checks that its members are
// the functions New draws one after another from the seeded stream —
// the order every filter, netlist and wide classification depends on.
func checkFamily(t *testing.T, k int, in, out uint, seed int64) {
	t.Helper()
	fam, err := NewFamily(k, in, out, seed)
	if err != nil {
		t.Fatal(err)
	}
	if fam.K() != k {
		t.Fatalf("K = %d, want %d", fam.K(), k)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < k; i++ {
		f, err := New(in, out, rng)
		if err != nil {
			t.Fatal(err)
		}
		for r := uint(0); r < in; r++ {
			if fam.Func(i).Row(r) != f.Row(r) {
				t.Fatalf("%d-bit family member %d row %d differs from the %d-th function drawn from seed %d", in, i, r, i, seed)
			}
		}
	}
}

func TestFamily(t *testing.T) { checkFamily(t, 4, 20, 14, 77) }

func TestFamily64(t *testing.T) {
	checkFamily(t, 4, 48, 14, 77)
	checkFamily(t, 4, 64, 14, 77)
}

func TestFamilyMembersIndependent(t *testing.T) {
	fam, err := NewFamily(4, 20, 14, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fam.K(); i++ {
		for j := i + 1; j < fam.K(); j++ {
			same := 0
			for x := uint32(1); x <= 1000; x++ {
				if fam.Func(i).Hash(x) == fam.Func(j).Hash(x) {
					same++
				}
			}
			if same > 5 {
				t.Errorf("family members %d and %d agree on %d/1000 inputs", i, j, same)
			}
		}
	}
}

func TestFamilyValidation(t *testing.T) {
	if _, err := NewFamily(0, 20, 14, 1); err == nil {
		t.Error("NewFamily(0,...) succeeded, want error")
	}
	for _, in := range []uint{0, 65} {
		if _, err := NewFamily(2, in, 14, 1); err == nil {
			t.Errorf("NewFamily with input width %d succeeded, want error", in)
		}
	}
}

func TestFamilyDeterministic(t *testing.T) {
	a, _ := NewFamily(6, 20, 12, 9)
	b, _ := NewFamily(6, 20, 12, 9)
	for i := 0; i < 6; i++ {
		for x := uint32(0); x < 100; x++ {
			if a.Func(i).Hash(x) != b.Func(i).Hash(x) {
				t.Fatalf("family member %d differs for same seed", i)
			}
		}
	}
}

func BenchmarkHash(b *testing.B) {
	f, _ := New(20, 14, rand.New(rand.NewSource(1)))
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= f.Hash(uint32(i) & 0xFFFFF)
	}
	_ = sink
}

func BenchmarkHash64(b *testing.B) {
	f, _ := New(64, 14, rand.New(rand.NewSource(1)))
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= f.Hash64(uint64(i) * 0x9E3779B97F4A7C15)
	}
	_ = sink
}
