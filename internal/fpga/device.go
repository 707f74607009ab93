// Package fpga models the Altera Stratix II EP2S180 FPGA that hosts the
// classifier on the XtremeData XD1000 (§4) and provides the resource and
// clock-frequency estimates behind the paper's Tables 2 and 3.
//
// The embedded-RAM arithmetic is exact: an (m,k) Parallel Bloom Filter
// bit-vector occupies m/4Kbit M4K blocks, a language needs k vectors,
// and a classifier accepting 8 n-grams per clock replicates the
// multiple-language classifier four times (dual-ported RAMs test two
// n-grams each, §3.2–3.3), so
//
//	M4K(module) = copies × languages × k × m/4Kbit
//
// which reproduces every M4K cell in Table 2 and both classifier M4K
// counts in Table 3. Logic, register and frequency numbers come from
// Quartus II synthesis in the paper; here they are a calibrated analytic
// model: exact lookup at the paper's published points, linear
// interpolation elsewhere (see model.go).
package fpga

import "fmt"

// Device describes an FPGA's relevant resource inventory.
type Device struct {
	// Name is the device part, e.g. "EP2S180".
	Name string
	// ALUTs is the adaptive lookup table count ("Logic Utilization"
	// unit of Tables 2–3).
	ALUTs int
	// Registers is the flip-flop count.
	Registers int
	// M512s, M4Ks, MRAMs are the embedded memory block counts.
	M512s, M4Ks, MRAMs int
	// M4KBits is the usable capacity of one M4K block in bits (the
	// paper uses the 4 Kbit data capacity).
	M4KBits uint32
}

// EP2S180 returns the paper's target device: the Altera Stratix II
// EP2S180F1508-C3 with 768 4-Kbit embedded RAMs (§5).
func EP2S180() Device {
	return Device{
		Name:      "EP2S180",
		ALUTs:     143520,
		Registers: 143520,
		M512s:     930,
		M4Ks:      768,
		MRAMs:     9,
		M4KBits:   4096,
	}
}

// ModuleConfig describes one n-gram classifier module instance — the
// unit Table 2 characterizes (two languages accepting eight n-grams per
// clock, i.e. four copies of the dual-ported multiple-language
// classifier).
type ModuleConfig struct {
	// K is the number of hash functions per Bloom filter.
	K int
	// MBits is each bit-vector's length in bits.
	MBits uint32
	// Languages is the number of language profiles in the module.
	Languages int
	// Copies is the number of replicated classifiers; each copy tests
	// two n-grams per clock, so n-grams/clock = 2×Copies.
	Copies int
}

// Table2Config returns the module shape Table 2 measures: two languages,
// four copies (8 n-grams/clock).
func Table2Config(k int, mBits uint32) ModuleConfig {
	return ModuleConfig{K: k, MBits: mBits, Languages: 2, Copies: 4}
}

func (c ModuleConfig) validate(dev Device) error {
	if c.K < 1 {
		return fmt.Errorf("fpga: k=%d must be positive", c.K)
	}
	if c.MBits == 0 || c.MBits&(c.MBits-1) != 0 {
		return fmt.Errorf("fpga: m=%d bits is not a power of two", c.MBits)
	}
	if c.MBits < dev.M4KBits {
		return fmt.Errorf("fpga: m=%d bits smaller than one M4K (%d bits)", c.MBits, dev.M4KBits)
	}
	if c.Languages < 1 {
		return fmt.Errorf("fpga: languages=%d must be positive", c.Languages)
	}
	if c.Copies < 1 {
		return fmt.Errorf("fpga: copies=%d must be positive", c.Copies)
	}
	return nil
}

// NGramsPerClock returns the module's input rate: two n-grams per copy
// per clock thanks to dual-ported embedded RAMs.
func (c ModuleConfig) NGramsPerClock() int { return 2 * c.Copies }

// RAMsPerVector returns the number of M4K blocks backing one bit-vector.
func (c ModuleConfig) RAMsPerVector(dev Device) int {
	return int(c.MBits / dev.M4KBits)
}

// M4Count returns the module's exact M4K block count.
func (c ModuleConfig) M4Count(dev Device) int {
	return c.Copies * c.Languages * c.K * c.RAMsPerVector(dev)
}

// BitsPerLanguage returns the on-chip storage one language profile
// consumes across one classifier copy: k vectors of m bits. The paper's
// "most space-efficient configuration ... uses just 24 Kbits per
// language" is k=6 × 4 Kbit (§5.2).
func (c ModuleConfig) BitsPerLanguage() uint64 {
	return uint64(c.K) * uint64(c.MBits)
}
