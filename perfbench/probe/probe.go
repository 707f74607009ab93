// Package probe is the benchmark's machine-speed probe: a frozen,
// self-contained copy of the paper's inner loop (H3 byte-table hashing
// into K=4 × 16 Kbit parallel Bloom vectors for 10 languages, tested
// over a fixed seeded 4-gram stream).
//
// The benchmark runs the probe in short slices between load slices and
// divides every timing by the probe's rate, so host-speed drift on a
// shared machine cancels out. The probe must therefore never change
// with the program under test: it imports only the standard library,
// allocates nothing while running, and every pass must reproduce the
// frozen match checksum.
package probe

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

const (
	// Langs is the number of language filters.
	Langs = 10
	// K is the number of H3 hash functions (and bit vectors) per filter.
	K = 4
	// MBits is the length of each bit vector.
	MBits = 16 * 1024
	// inputBits is the packed 4-gram width (4 × 5-bit codes).
	inputBits = 20
	// outBits addresses one MBits vector.
	outBits = 14
	// ProfileGrams is the number of n-grams programmed per language.
	ProfileGrams = 5000
	// StreamGrams is the number of n-grams one Pass tests.
	StreamGrams = 4096
	// seed fixes the H3 matrices, the profiles and the stream.
	seed = 0x5eed_b100_f11e
	// Checksum is the number of (n-gram, language) matches one Pass
	// counts. It is frozen: a probe that disagrees is not the probe the
	// benchmark's normalisation constant was measured with.
	Checksum = 3666
)

// Probe holds the programmed filters and the test stream.
type Probe struct {
	tab    [Langs][K][3][256]uint16
	vec    [Langs][K][MBits / 64]uint64
	stream [StreamGrams]uint32
}

// splitmix64 is a self-contained PRNG, so the probe's data never
// depends on a library's generator.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// New builds the probe deterministically.
func New() *Probe {
	p := &Probe{}
	rng := splitmix64(seed)
	for l := 0; l < Langs; l++ {
		for k := 0; k < K; k++ {
			var rows [inputBits]uint16
			for i := range rows {
				rows[i] = uint16(rng.next() & (1<<outBits - 1))
			}
			for chunk := 0; chunk < 3; chunk++ {
				for v := 1; v < 256; v++ {
					var h uint16
					for b := 0; b < 8; b++ {
						if r := chunk*8 + b; v&(1<<b) != 0 && r < inputBits {
							h ^= rows[r]
						}
					}
					p.tab[l][k][chunk][v] = h
				}
			}
		}
	}
	// Languages draw their profiles from overlapping regions of the
	// n-gram space, so the stream's hits spread unevenly across them.
	var profiles [Langs][]uint32
	for l := 0; l < Langs; l++ {
		for i := 0; i < ProfileGrams; i++ {
			g := gram(&rng, l)
			profiles[l] = append(profiles[l], g)
			p.program(l, g)
		}
	}
	for i := range p.stream {
		if i%2 == 0 {
			l := int(rng.next() % Langs)
			p.stream[i] = profiles[l][rng.next()%ProfileGrams]
		} else {
			p.stream[i] = gram(&rng, int(rng.next()%Langs))
		}
	}
	return p
}

// gram draws a packed 4-gram of 5-bit letter codes, biased towards a
// language-specific slice of the alphabet.
func gram(rng *splitmix64, lang int) uint32 {
	var g uint32
	for c := 0; c < 4; c++ {
		code := uint32(1 + (uint64(lang)*2+rng.next()%12)%26)
		g = g<<5 | code
	}
	return g
}

func (p *Probe) hash(l, k int, g uint32) uint32 {
	t := &p.tab[l][k]
	return uint32(t[0][g&0xff] ^ t[1][g>>8&0xff] ^ t[2][g>>16&0xff])
}

func (p *Probe) program(l int, g uint32) {
	for k := 0; k < K; k++ {
		h := p.hash(l, k, g)
		p.vec[l][k][h>>6] |= 1 << (h & 63)
	}
}

// Pass tests every stream n-gram against every language filter and
// returns the number of matches, which must equal Checksum.
func (p *Probe) Pass() int {
	matches := 0
	for _, g := range p.stream {
		for l := 0; l < Langs; l++ {
			hit := true
			for k := 0; k < K; k++ {
				h := p.hash(l, k, g)
				if p.vec[l][k][h>>6]&(1<<(h&63)) == 0 {
					hit = false
					break
				}
			}
			if hit {
				matches++
			}
		}
	}
	return matches
}

// OpsPerPass is the number of membership tests in one Pass.
const OpsPerPass = StreamGrams * Langs

// Slice is the outcome of one probe slice.
type Slice struct {
	// Ops is the number of membership tests completed.
	Ops int64
	// Wall is the slice's wall time.
	Wall time.Duration
	// ProbeCPU is the CPU time the probe's own threads used.
	ProbeCPU time.Duration
	// ProcCPU is the CPU time the whole process used during the slice.
	ProcCPU time.Duration
}

// Rate returns membership tests per second.
func (s Slice) Rate() float64 { return float64(s.Ops) / s.Wall.Seconds() }

// Run runs the probe on workers goroutines for about d and reports the
// work done. Each goroutine is pinned to its OS thread so its CPU time
// can be read from the thread's own usage counters. It returns an
// error if any pass misses the frozen checksum.
func (p *Probe) Run(workers int, d time.Duration) (Slice, error) {
	ops := make([]int64, workers)
	cpu := make([]time.Duration, workers)
	bad := make([]int, workers) // a failed pass's match count, or -1
	var wg sync.WaitGroup
	proc0 := ProcessCPU()
	start := time.Now()
	deadline := start.Add(d)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		bad[w] = -1
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0 := threadCPU()
			for {
				if m := p.Pass(); m != Checksum {
					bad[w] = m
					break
				}
				ops[w] += OpsPerPass
				if !time.Now().Before(deadline) {
					break
				}
			}
			cpu[w] = threadCPU() - c0
		}(w)
	}
	wg.Wait()
	s := Slice{Wall: time.Since(start), ProcCPU: ProcessCPU() - proc0}
	for w := range ops {
		if bad[w] >= 0 {
			return s, fmt.Errorf("probe: pass counted %d matches, frozen checksum is %d", bad[w], Checksum)
		}
		s.Ops += ops[w]
		s.ProbeCPU += cpu[w]
	}
	return s, nil
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

func threadCPU() time.Duration { return rusage(rusageThread) }

// ProcessCPU returns the CPU time, user plus system, the process has
// used so far.
func ProcessCPU() time.Duration { return rusage(syscall.RUSAGE_SELF) }

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
