package fpga

import (
	"fmt"
	"math"
)

// This file holds the calibrated synthesis model. The paper's logic,
// register and frequency numbers are Quartus II synthesis results; we
// cannot run synthesis, so the model anchors on every published point
// (Tables 2 and 3) and interpolates linearly between them:
//
//   - per-hash logic cost grows with the bit-vector address width w =
//     log2(m): each extra address bit adds rows to the H3 XOR tree;
//   - the module's fixed cost (alphabet conversion, counters, muxing)
//     shrinks slightly as w grows because narrower vectors need more
//     multiplexing per copy (observed in Table 2);
//   - clock frequency falls as more M4K blocks must be routed to
//     (§5.2: "with fewer embedded RAMs per bit-vector the routing of
//     the design is made easier, thereby increasing the clock
//     frequency").

// table2 holds the paper's published module synthesis points, keyed by
// (m in Kbits, k). Module shape: 2 languages, 8 n-grams/clock.
type synthPoint struct {
	logic, regs int
	freqMHz     float64
}

var table2 = map[[2]int]synthPoint{
	{16, 4}: {5480, 3849, 182},
	{16, 3}: {4441, 3340, 189},
	{16, 2}: {3547, 2780, 191},
	{8, 4}:  {4760, 3722, 194},
	{8, 3}:  {4072, 3229, 202},
	{8, 2}:  {3363, 2713, 202},
	{4, 6}:  {5458, 4471, 197},
	{4, 5}:  {4983, 4006, 198},
}

// Linear-model coefficients fitted to Table 2: a column's step per hash
// function is the per-hash cost (5458−4983 = 475 ALUTs at m = 4 Kbit),
// and what a column leaves at k = 0 is the base.
const (
	// Logic: module = logicBase(w) + k*logicPerHash(w).
	logicPerHashAtW12  = 475.0 // ALUTs per hash function at w=12 (m=4Kbit)
	logicPerHashPerBit = 245.5 // additional ALUTs per hash per address bit
	logicBaseAtW12     = 2608.0
	logicBaseSlopeLow  = -643.0 // base delta per address bit, w in [12,13]
	logicBaseSlopeHigh = -375.0 // base delta per address bit, w >= 13
	regsPerHashAtW12   = 465.0
	regsPerHashPerBit  = 34.5
	regsBase           = 1700.0
	// Frequency: module fallback ≈ freqIntercept − freqPerM4K × M4K.
	freqIntercept = 206.0
	freqPerM4K    = 0.19
	freqFloor     = 120.0
	freqCeil      = 210.0
)

// addressBits returns w = log2(mBits).
func addressBits(mBits uint32) int {
	w := 0
	for 1<<w < int(mBits) {
		w++
	}
	return w
}

func logicPerHash(w int) float64 {
	return logicPerHashAtW12 + logicPerHashPerBit*float64(w-12)
}

func logicBase(w int) float64 {
	switch {
	case w <= 12:
		return logicBaseAtW12 - logicBaseSlopeLow*float64(12-w)
	case w == 13:
		return logicBaseAtW12 + logicBaseSlopeLow
	default:
		return logicBaseAtW12 + logicBaseSlopeLow + logicBaseSlopeHigh*float64(w-13)
	}
}

// ModuleReport is the estimated synthesis result for one classifier
// module.
type ModuleReport struct {
	// Logic is the ALUT count ("Logic Utilization" in Table 2).
	Logic int
	// Registers is the flip-flop count.
	Registers int
	// M4Ks is the exact embedded RAM block count.
	M4Ks int
	// FreqMHz is the post-place-and-route clock estimate.
	FreqMHz float64
	// Calibrated is true when the point comes straight from the paper's
	// published synthesis results rather than the interpolation model.
	Calibrated bool
}

// EstimateModule models the synthesis of one classifier module on the
// device.
func EstimateModule(cfg ModuleConfig, dev Device) (ModuleReport, error) {
	if err := cfg.validate(dev); err != nil {
		return ModuleReport{}, err
	}
	rep := ModuleReport{M4Ks: cfg.M4Count(dev)}
	mKbits := int(cfg.MBits / 1024)
	if p, ok := table2[[2]int{mKbits, cfg.K}]; ok && cfg.Languages == 2 && cfg.Copies == 4 {
		rep.Logic, rep.Registers, rep.FreqMHz = p.logic, p.regs, p.freqMHz
		rep.Calibrated = true
		return rep, nil
	}
	w := addressBits(cfg.MBits)
	// Scale the 2-language/4-copy fit to the requested shape: the
	// hash/vector datapath replicates per copy-language-hash; the base
	// replicates per copy pair of languages.
	perHash := logicPerHash(w) * float64(cfg.Copies) / 4 * float64(cfg.Languages) / 2
	base := logicBase(w) * float64(cfg.Copies) / 4
	rep.Logic = int(math.Round(base + float64(cfg.K)*perHash))
	perHashRegs := (regsPerHashAtW12 + regsPerHashPerBit*float64(w-12)) * float64(cfg.Copies) / 4 * float64(cfg.Languages) / 2
	rep.Registers = int(math.Round(regsBase*float64(cfg.Copies)/4 + float64(cfg.K)*perHashRegs))
	rep.FreqMHz = clampFreq(freqIntercept - freqPerM4K*float64(rep.M4Ks))
	return rep, nil
}

func clampFreq(f float64) float64 {
	if f < freqFloor {
		return freqFloor
	}
	if f > freqCeil {
		return freqCeil
	}
	return f
}

// System-level calibration (Table 3). Solving the two published device
// builds for a shared-per-module cost and a fixed infrastructure cost
// gives, from infra + L·(module − shared)/2 = 38891 at L = 10 (module
// 5480) and 85924 at L = 30 (module 5458):
const (
	sysInfraLogic      = 15210.0 // HT core, DMA, command logic, adder trees
	sysModuleShared    = 744.0   // per-module cost not replicated per language
	sysInfraRegs       = 12287.0
	sysModuleSharedReg = 729.0
)

// infraM4K models the infrastructure's embedded-RAM use (FIFOs grow
// with language count): 40 blocks at 10 languages, 48 at 30 (Table 3).
func infraM4K(languages int) int {
	return int(math.Round(36 + 0.4*float64(languages)))
}

// infraM512 models M512 use: 36 at 10 languages, 66 at 30 (Table 3).
func infraM512(languages int) int {
	return int(math.Round(21 + 1.5*float64(languages)))
}

// infraMRAM models M-RAM use, which the paper's builds traded against
// language count: 9 at 10 languages, 6 at 30.
func infraMRAM(languages int) int {
	v := int(math.Round(10.5 - 0.15*float64(languages)))
	if v < 0 {
		v = 0
	}
	return v
}

// SystemReport is the estimated full-device build (classifier plus the
// ~10% infrastructure: HyperTransport core, DMA controller, command
// control logic — §5.3).
type SystemReport struct {
	Logic      int
	Registers  int
	M512s      int
	M4Ks       int
	MRAMs      int
	FreqMHz    float64
	Calibrated bool
	// Fits reports whether the build fits the device.
	Fits bool
	// LogicUtilization is Logic divided by the device's ALUT count.
	LogicUtilization float64
	// NGramsPerClock is the datapath input rate.
	NGramsPerClock int
}

// table3 holds the two published device builds keyed by
// (m in Kbits, k, languages).
var table3 = map[[3]int]struct {
	logic, regs, m512, m4k, mram int
	freqMHz                      float64
}{
	{16, 4, 10}: {38891, 27889, 36, 680, 9, 194},
	{4, 6, 30}:  {85924, 68423, 66, 768, 6, 170},
}

// EstimateSystem models a full-device classifier build with the given
// per-language filter shape, language count and copies.
func EstimateSystem(cfg ModuleConfig, dev Device) (SystemReport, error) {
	if err := cfg.validate(dev); err != nil {
		return SystemReport{}, err
	}
	rep := SystemReport{NGramsPerClock: cfg.NGramsPerClock()}
	mKbits := int(cfg.MBits / 1024)
	if p, ok := table3[[3]int{mKbits, cfg.K, cfg.Languages}]; ok && cfg.Copies == 4 {
		rep.Logic, rep.Registers = p.logic, p.regs
		rep.M512s, rep.M4Ks, rep.MRAMs = p.m512, p.m4k, p.mram
		rep.FreqMHz = p.freqMHz
		rep.Calibrated = true
	} else {
		mod, err := EstimateModule(ModuleConfig{K: cfg.K, MBits: cfg.MBits, Languages: 2, Copies: 4}, dev)
		if err != nil {
			return SystemReport{}, err
		}
		perLangLogic := (float64(mod.Logic) - sysModuleShared) / 2
		perLangRegs := (float64(mod.Registers) - sysModuleSharedReg) / 2
		scale := float64(cfg.Copies) / 4
		rep.Logic = int(math.Round(sysInfraLogic + scale*perLangLogic*float64(cfg.Languages)))
		rep.Registers = int(math.Round(sysInfraRegs + scale*perLangRegs*float64(cfg.Languages)))
		rep.M4Ks = cfg.M4Count(dev) + infraM4K(cfg.Languages)
		rep.M512s = infraM512(cfg.Languages)
		rep.MRAMs = infraMRAM(cfg.Languages)
		// Device frequency anchored on the two Table 3 builds:
		// 680 M4K -> 194 MHz, 768 M4K -> 170 MHz.
		rep.FreqMHz = clampFreq(194 + (680-float64(rep.M4Ks))*0.2727)
	}
	rep.LogicUtilization = float64(rep.Logic) / float64(dev.ALUTs)
	rep.Fits = rep.Logic <= dev.ALUTs &&
		rep.Registers <= dev.Registers &&
		rep.M512s <= dev.M512s &&
		rep.M4Ks <= dev.M4Ks &&
		rep.MRAMs <= dev.MRAMs
	return rep, nil
}

// MaxLanguagesIdeal returns the language count supportable if every M4K
// block could hold bit-vectors (no infrastructure) — the arithmetic
// behind §5.2's "supports only twelve languages" for k=4, m=16 Kbit.
func MaxLanguagesIdeal(k int, mBits uint32, copies int, dev Device) int {
	perLang := copies * k * int(mBits/dev.M4KBits)
	if perLang <= 0 {
		return 0
	}
	return dev.M4Ks / perLang
}

// MaxLanguages returns the language count supportable after reserving
// infrastructure M4K blocks, found by fixpoint iteration — the
// arithmetic behind the final 30-language build (§5.2, Table 3).
func MaxLanguages(k int, mBits uint32, copies int, dev Device) int {
	perLang := copies * k * int(mBits/dev.M4KBits)
	if perLang <= 0 {
		return 0
	}
	p := dev.M4Ks / perLang
	for i := 0; i < 10; i++ {
		next := (dev.M4Ks - infraM4K(p)) / perLang
		if next < 0 {
			next = 0
		}
		if next == p {
			break
		}
		p = next
	}
	return p
}

// PeakThroughputMBps returns the theoretical classification rate in
// MB/sec (2^20): each n-gram consumes one input byte, so peak =
// frequency × n-grams/clock (§5.4: 194 MHz × 8 = 1,552 million
// n-grams/sec ≈ 1.4 GB/sec).
func PeakThroughputMBps(freqMHz float64, ngramsPerClock int) float64 {
	return freqMHz * 1e6 * float64(ngramsPerClock) / (1 << 20)
}

// FormatMHz renders a frequency for reports.
func FormatMHz(f float64) string { return fmt.Sprintf("%.0f MHz", f) }
