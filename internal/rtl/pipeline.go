// Package rtl is a cycle-stepped register-transfer-level model of one
// classifier copy — the datapath the paper implements in VHDL (§3,
// Figures 1-2). Where internal/core computes match counts functionally
// and internal/xd1000 accounts time analytically, this package steps
// the actual pipeline clock by clock:
//
//	stage 0  window   two 5-bit characters shift in per clock
//	                  (dual-ported RAMs let one copy test two n-grams
//	                  per cycle, §3.2); two candidate n-grams emerge
//	stage 1  hash     k H3 XOR trees per language evaluate both n-grams
//	stage 2  read     each (language, hash) embedded RAM serves the two
//	                  reads on its two ports; the k bits AND-reduce to a
//	                  match bit per language per n-gram
//	stage 3  count    per-language match counters increment
//
// The model enforces the structural constraint that motivates the
// Parallel Bloom Filter: an embedded RAM has exactly two ports, so a
// single shared vector could never serve k reads per cycle. Port usage
// is asserted every clock.
//
// Tests verify the pipeline is cycle-exact against the functional
// classifier: same counters, and latency equal to ceil(chars/2) plus
// the pipeline depth.
package rtl

import (
	"fmt"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/ngram"
)

// PortsPerRAM is the number of read ports on a modern FPGA embedded
// RAM (§3.2: "embedded RAMs ... are typically dual-ported").
const PortsPerRAM = 2

// Depth is the pipeline depth in clocks: a character pair entering at
// cycle t updates the counters at t+Depth.
const Depth = 4

// gramSlot is one n-gram travelling down the pipeline.
type gramSlot struct {
	gram  uint32
	valid bool
}

// hashSlot carries the k addresses for one n-gram per language.
type hashSlot struct {
	// addr[lang][hash] is the bit-vector address.
	addr  [][]uint32
	valid bool
}

// matchSlot carries per-language match bits for one n-gram.
type matchSlot struct {
	match []bool
	valid bool
}

// Pipeline is one classifier copy processing two characters per clock
// against p languages.
type Pipeline struct {
	n     int
	k     int
	langs int

	// Filter state: filters[lang] holds the language's k 1×m
	// bit-vectors and H3 family, built by the same function as the
	// functional classifier's (core.ProfileSet.ParallelFilters), so RTL
	// and functional results cannot drift apart.
	filters []*bloom.Parallel

	// Architectural state.
	window uint32
	mask   uint32
	filled int

	// Pipeline registers between stages (two slots per stage: the two
	// n-grams of the cycle).
	s1 [2]gramSlot  // window -> hash
	s2 [2]hashSlot  // hash -> read
	s3 [2]matchSlot // read -> count

	counters []int
	cycles   int64

	// ramReads[lang][hash] counts reads issued to that RAM in the
	// current cycle; checked against PortsPerRAM.
	ramReads [][]int
}

// New builds a pipeline over one Parallel Bloom Filter per language
// (core.ProfileSet.ParallelFilters) for the configuration cfg.
func New(cfg core.Config, filters []*bloom.Parallel) (*Pipeline, error) {
	if cfg.Subsample > 1 {
		return nil, fmt.Errorf("rtl: subsampling not modelled at RTL level")
	}
	langs := len(filters)
	p := &Pipeline{
		n:        cfg.N,
		k:        cfg.K,
		langs:    langs,
		mask:     uint32(uint64(1)<<ngram.Bits(cfg.N) - 1),
		counters: make([]int, langs),
		filters:  filters,
	}
	p.ramReads = make([][]int, langs)
	for i := range p.ramReads {
		p.ramReads[i] = make([]int, cfg.K)
	}
	return p, nil
}

// Reset clears architectural and pipeline state (counters included);
// filter contents are external and untouched.
func (p *Pipeline) Reset() {
	p.window = 0
	p.filled = 0
	p.s1 = [2]gramSlot{}
	p.s2 = [2]hashSlot{}
	p.s3 = [2]matchSlot{}
	for i := range p.counters {
		p.counters[i] = 0
	}
	p.cycles = 0
}

// Clock advances the pipeline one cycle with nValid input characters
// (0, 1 or 2). Stages execute back to front, as registers latch.
func (p *Pipeline) Clock(c0, c1 alphabet.Code, nValid int) {
	if nValid < 0 || nValid > 2 {
		panic(fmt.Sprintf("rtl: %d input characters in one cycle", nValid))
	}
	p.cycles++

	// Stage 3: counters latch from match slots.
	for _, s := range p.s3 {
		if !s.valid {
			continue
		}
		for l, m := range s.match {
			if m {
				p.counters[l]++
			}
		}
	}

	// Stage 2 -> 3: RAM reads and AND-reduce.
	for l := range p.ramReads {
		for h := range p.ramReads[l] {
			p.ramReads[l][h] = 0
		}
	}
	for i, s := range p.s2 {
		if !s.valid {
			p.s3[i] = matchSlot{}
			continue
		}
		match := make([]bool, p.langs)
		for l := 0; l < p.langs; l++ {
			all := true
			for h := 0; h < p.k; h++ {
				p.ramReads[l][h]++
				if p.ramReads[l][h] > PortsPerRAM {
					panic(fmt.Sprintf("rtl: RAM (lang %d, hash %d) issued %d reads in one cycle, ports=%d",
						l, h, p.ramReads[l][h], PortsPerRAM))
				}
				if !p.filters[l].Vector(h).Get(s.addr[l][h]) {
					all = false
					// Hardware reads all ports regardless; keep counting
					// reads but the AND result is already decided.
				}
			}
			match[l] = all
		}
		p.s3[i] = matchSlot{match: match, valid: true}
	}

	// Stage 1 -> 2: hash both n-grams for every language.
	for i, s := range p.s1 {
		if !s.valid {
			p.s2[i] = hashSlot{}
			continue
		}
		addr := make([][]uint32, p.langs)
		for l := 0; l < p.langs; l++ {
			addr[l] = make([]uint32, p.k)
			for h := 0; h < p.k; h++ {
				addr[l][h] = p.filters[l].Hash(h, s.gram)
			}
		}
		p.s2[i] = hashSlot{addr: addr, valid: true}
	}

	// Stage 0 -> 1: shift the input characters through the window.
	p.s1 = [2]gramSlot{}
	in := [2]alphabet.Code{c0, c1}
	for i := 0; i < nValid; i++ {
		p.window = (p.window<<alphabet.Bits | uint32(in[i])) & p.mask
		if p.filled < p.n-1 {
			p.filled++
			continue
		}
		p.s1[i] = gramSlot{gram: p.window, valid: true}
	}
}

// Drain clocks the pipeline with no input until all in-flight n-grams
// have updated the counters.
func (p *Pipeline) Drain() {
	for i := 0; i < Depth; i++ {
		p.Clock(0, 0, 0)
	}
}

// Counters returns the per-language match counts accumulated so far.
func (p *Pipeline) Counters() []int {
	return append([]int(nil), p.counters...)
}

// Cycles returns the clock count since Reset.
func (p *Pipeline) Cycles() int64 { return p.cycles }

// RunDocument streams a whole document through the pipeline (two
// characters per clock), drains it, and returns the counters and the
// cycle count — the RTL ground truth for the analytic cycle model in
// internal/xd1000.
func (p *Pipeline) RunDocument(doc []byte) ([]int, int64) {
	p.Reset()
	codes := alphabet.TranslateAll(doc)
	for i := 0; i < len(codes); i += 2 {
		if i+1 < len(codes) {
			p.Clock(codes[i], codes[i+1], 2)
		} else {
			p.Clock(codes[i], 0, 1)
		}
	}
	p.Drain()
	return p.Counters(), p.Cycles()
}
