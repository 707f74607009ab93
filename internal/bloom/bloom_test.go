package bloom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitVectorBasics(t *testing.T) {
	v := NewBitVector(130) // straddles word boundaries
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	for _, i := range []uint32{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Errorf("fresh vector has bit %d set", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if v.PopCount() != 8 {
		t.Errorf("PopCount = %d, want 8", v.PopCount())
	}
	v.Reset()
	if v.PopCount() != 0 {
		t.Errorf("PopCount after Reset = %d, want 0", v.PopCount())
	}
}

func TestBitVectorBounds(t *testing.T) {
	v := NewBitVector(64)
	for name, f := range map[string]func(){
		"Set": func() { v.Set(64) },
		"Get": func() { v.Get(64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNewBitVectorZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBitVector(0) did not panic")
		}
	}()
	NewBitVector(0)
}

// The tests below run one check per property at two element widths:
// the paper's 20-bit packed 4-gram through Program and Test, and the
// 64-bit packed 4-gram of 16-bit characters (§3.3) through Program64 and
// Test64 — the same filter, only the hash input wider.

// element draws a random element of the given width.
func element(rng *rand.Rand, bits uint) uint64 {
	return rng.Uint64() >> (64 - bits)
}

// program inserts g through the entry point of its width.
func program(p *Parallel, bits uint, g uint64) {
	if bits <= 32 {
		p.Program(uint32(g))
	} else {
		p.Program64(g)
	}
}

// test looks g up through the entry point of its width. A narrow
// element must get the same answer from Test64.
func test(t *testing.T, p *Parallel, bits uint, g uint64) bool {
	t.Helper()
	if bits > 32 {
		return p.Test64(g)
	}
	narrow := p.Test(uint32(g))
	if p.Test64(g) != narrow {
		t.Fatalf("Test64(%#x) disagrees with Test", g)
	}
	return narrow
}

func checkParallelValidation(t *testing.T, bits uint) {
	t.Helper()
	if _, err := NewParallel(4, bits, 1000, 1); err == nil {
		t.Errorf("%d-bit filter: non-power-of-two m accepted", bits)
	}
	if _, err := NewParallel(0, bits, 1024, 1); err == nil {
		t.Errorf("%d-bit filter: k=0 accepted", bits)
	}
	p, err := NewParallel(4, bits, 16384, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 4 || p.M() != 16384 {
		t.Errorf("%d-bit filter: K=%d M=%d, want 4, 16384", bits, p.K(), p.M())
	}
}

func TestNewParallelValidation(t *testing.T) { checkParallelValidation(t, 20) }

func TestParallel64Validation(t *testing.T) {
	checkParallelValidation(t, 64)
	if _, err := NewParallel(4, 65, 1024, 1); err == nil {
		t.Error("65-bit elements accepted")
	}
}

// The defining guarantee: a Bloom filter has no false negatives.
func checkNoFalseNegatives(t *testing.T, bits uint) {
	t.Helper()
	p, err := NewParallel(4, bits, 16384, 42)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	members := make([]uint64, 5000)
	for i := range members {
		members[i] = element(rng, bits)
		program(p, bits, members[i])
	}
	for _, g := range members {
		if !test(t, p, bits, g) {
			t.Fatalf("%d-bit filter: false negative for programmed element %#x", bits, g)
		}
	}
	if p.N() != len(members) {
		t.Errorf("%d-bit filter: N = %d, want %d", bits, p.N(), len(members))
	}
}

func TestParallelNoFalseNegatives(t *testing.T) { checkNoFalseNegatives(t, 20) }

func TestParallel64NoFalseNegatives(t *testing.T) { checkNoFalseNegatives(t, 64) }

// Property-based variant over arbitrary small element sets.
func TestParallelNoFalseNegativesQuick(t *testing.T) {
	prop := func(raw []uint32, seed int64) bool {
		p, err := NewParallel(3, 20, 4096, seed)
		if err != nil {
			return false
		}
		for _, r := range raw {
			p.Program(r & 0xFFFFF)
		}
		for _, r := range raw {
			if !p.Test(r & 0xFFFFF) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func checkEmptyRejects(t *testing.T, bits uint) {
	t.Helper()
	p, _ := NewParallel(4, bits, 16384, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		if g := element(rng, bits); test(t, p, bits, g) {
			t.Fatalf("empty %d-bit filter matched %#x", bits, g)
		}
	}
}

func TestParallelEmptyRejectsEverything(t *testing.T) { checkEmptyRejects(t, 20) }

func TestParallel64EmptyRejects(t *testing.T) { checkEmptyRejects(t, 64) }

func TestParallelFalsePositiveRateMatchesModel(t *testing.T) {
	// Program N=5000 random 20-bit elements into k=4, m=16Kbit: the
	// paper's most conservative configuration, expected f ≈ 5/1000.
	const (
		k = 4
		m = 16 * 1024
		n = 5000
	)
	p, err := NewParallel(k, 20, m, 99)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	members := map[uint32]bool{}
	for len(members) < n {
		members[rng.Uint32()&0xFFFFF] = true
	}
	for g := range members {
		p.Program(g)
	}
	// Measure the empirical false positive rate over all non-members.
	fp, trials := 0, 0
	for g := uint32(0); g < 1<<20; g++ {
		if members[g] {
			continue
		}
		trials++
		if p.Test(g) {
			fp++
		}
	}
	got := float64(fp) / float64(trials)
	want := FalsePositiveRate(n, m, k)
	if got < want/2 || got > want*2 {
		t.Errorf("empirical fp rate %.5f not within 2x of model %.5f", got, want)
	}
}

// The wide width of the same measurement: the 64-bit space cannot be
// enumerated, so fresh random probes stand in for the non-members
// (collisions with members are negligible).
func TestParallel64FalsePositiveRate(t *testing.T) {
	const (
		k = 4
		m = 16 * 1024
		n = 5000
	)
	p, _ := NewParallel(k, 64, m, 99)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		p.Program64(rng.Uint64())
	}
	fp, trials := 0, 200000
	for i := 0; i < trials; i++ {
		if p.Test64(rng.Uint64()) {
			fp++
		}
	}
	got := float64(fp) / float64(trials)
	want := FalsePositiveRate(n, m, k)
	if got < want/2 || got > want*2 {
		t.Errorf("empirical fp %.5f not within 2x of model %.5f", got, want)
	}
	if p.FalsePositiveRate() != want {
		t.Error("FalsePositiveRate accessor disagrees with model")
	}
}

func TestFalsePositiveRateTable1Values(t *testing.T) {
	// Table 1 lists the expected false positives per thousand for
	// N=5000 profiles. Our model must reproduce those columns.
	cases := []struct {
		mKbits   uint32
		k        int
		perMille int
	}{
		{16, 4, 5},
		{16, 3, 18},
		{16, 2, 69},
		{8, 4, 44},
		{8, 3, 95},
		{8, 2, 209},
		{4, 6, 123},
		{4, 5, 174},
	}
	for _, c := range cases {
		f := FalsePositiveRate(5000, c.mKbits*1024, c.k)
		got := PerThousand(f)
		// Allow ±1 per-mille for rounding differences.
		if got < c.perMille-1 || got > c.perMille+1 {
			t.Errorf("m=%dKbit k=%d: fp per thousand = %d, paper says %d", c.mKbits, c.k, got, c.perMille)
		}
	}
}

func TestFalsePositiveRateEdgeCases(t *testing.T) {
	if got := FalsePositiveRate(0, 1024, 4); got != 0 {
		t.Errorf("fp rate with N=0 = %v, want 0", got)
	}
	if got := FalsePositiveRate(-5, 1024, 4); got != 0 {
		t.Errorf("fp rate with N<0 = %v, want 0", got)
	}
	// Monotonicity: more hashes => lower rate (below saturation).
	if FalsePositiveRate(5000, 16384, 4) >= FalsePositiveRate(5000, 16384, 2) {
		t.Error("fp rate not decreasing in k")
	}
	// Larger vectors => lower rate.
	if FalsePositiveRate(5000, 16384, 4) >= FalsePositiveRate(5000, 8192, 4) {
		t.Error("fp rate not decreasing in m")
	}
}

func checkReset(t *testing.T, bits uint) {
	t.Helper()
	p, _ := NewParallel(4, bits, 4096, 5)
	for _, g := range []uint64{1, 2, 3} {
		program(p, bits, g)
	}
	if p.N() != 3 {
		t.Fatalf("%d-bit filter: N = %d, want 3", bits, p.N())
	}
	p.Reset()
	if p.N() != 0 {
		t.Errorf("%d-bit filter: N after Reset = %d", bits, p.N())
	}
	if test(t, p, bits, 1) || test(t, p, bits, 2) || test(t, p, bits, 3) {
		t.Errorf("%d-bit filter still matches after Reset", bits)
	}
	if p.FalsePositiveRate() != 0 {
		t.Errorf("%d-bit filter: fp rate nonzero after Reset", bits)
	}
}

func TestParallelReset(t *testing.T) { checkReset(t, 20) }

func TestParallel64Reset(t *testing.T) { checkReset(t, 48) }

// With the same total bit budget (k*m bits), the parallel and classic
// variants should have comparable false positive rates; the parallel
// variant must not be catastrophically worse (it is the hardware-
// implementable one).
func TestParallelVsClassicSameBudget(t *testing.T) {
	const n = 5000
	par := FalsePositiveRate(n, 16*1024, 4)        // 4 vectors x 16Kbit = 64Kbit
	cls := ClassicFalsePositiveRate(n, 64*1024, 4) // one 64Kbit vector
	if par > cls*3 {
		t.Errorf("parallel fp %.5f more than 3x classic fp %.5f at same budget", par, cls)
	}
}

func TestPerThousand(t *testing.T) {
	if got := PerThousand(0.005); got != 5 {
		t.Errorf("PerThousand(0.005) = %d, want 5", got)
	}
	if got := PerThousand(0.2094); got != 209 {
		t.Errorf("PerThousand(0.2094) = %d, want 209", got)
	}
	if got := PerThousand(0); got != 0 {
		t.Errorf("PerThousand(0) = %d, want 0", got)
	}
}

func TestVectorAccessor(t *testing.T) {
	p, _ := NewParallel(3, 20, 4096, 1)
	p.Program(0x12345)
	setBits := 0
	for i := 0; i < p.K(); i++ {
		setBits += p.Vector(i).PopCount()
	}
	if setBits != 3 {
		t.Errorf("one programmed element set %d bits across vectors, want 3", setBits)
	}
}

func TestFalsePositiveRateFormulaExact(t *testing.T) {
	// Spot-check the closed form against a direct computation.
	n, m, k := 5000, uint32(16*1024), 4
	p := 1 - math.Exp(-float64(n)/float64(m))
	want := math.Pow(p, float64(k))
	if got := FalsePositiveRate(n, m, k); math.Abs(got-want) > 1e-12 {
		t.Errorf("FalsePositiveRate = %v, want %v", got, want)
	}
}

func BenchmarkParallelTestK4M16K(b *testing.B) {
	p, _ := NewParallel(4, 20, 16*1024, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		p.Program(rng.Uint32() & 0xFFFFF)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Test(uint32(i) & 0xFFFFF)
	}
}

func BenchmarkParallelProgram(b *testing.B) {
	p, _ := NewParallel(4, 20, 16*1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Program(uint32(i) & 0xFFFFF)
	}
}

func BenchmarkParallelTest64(b *testing.B) {
	p, _ := NewParallel(4, 64, 16*1024, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		p.Program64(rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Test64(uint64(i) * 0x9E3779B97F4A7C15)
	}
}
