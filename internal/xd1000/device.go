// Package xd1000 simulates the paper's complete hardware/software
// system: the parallel multi-language classifier on the Stratix II FPGA
// of the XtremeData XD1000, driven by an Opteron host over
// HyperTransport (§3.3, §4, Figure 2b).
//
// The simulation has two layers:
//
//   - a functional layer — the device classifies documents with
//     Parallel Bloom Filters built by bloom.ParallelFilters,
//     as the software's parallel-bloom kernel is, so simulated
//     hardware results and software results agree exactly;
//   - a timing layer — DMA transfers, PIO command writes, interrupts
//     and datapath cycles advance a deterministic simulated clock, from
//     which the throughput figures of Figure 4 and Table 4 are derived.
package xd1000

import (
	"fmt"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/fpga"
	"bloomlang/internal/ht"
	"bloomlang/internal/ngram"
)

// deviceState enumerates the protocol state machine of §4.
type deviceState int

const (
	// stateIdle: no document announced.
	stateIdle deviceState = iota
	// stateReceiving: a Size command set an expectation; data words are
	// still outstanding, and commands queue until they all arrive.
	stateReceiving
	// stateDocReady: all words arrived; EndOfDocument may be processed.
	stateDocReady
)

// DeviceError is a protocol error detected by the device model; the
// hardware equivalent raises a status bit read back with Query Result.
type DeviceError struct {
	Op     string
	Detail string
}

func (e *DeviceError) Error() string {
	return fmt.Sprintf("xd1000: %s: %s", e.Op, e.Detail)
}

// Device is the FPGA-side model: command decoding, DMA reassembly,
// per-copy match counters and the adder tree.
type Device struct {
	// filters[l] is language l's Parallel Bloom Filter, the RAMs
	// CmdProgram writes and the datapath reads.
	filters   []*bloom.Parallel
	copies    int
	extractor *ngram.Extractor
	watchdog  *ht.Watchdog

	state       deviceState
	expectWords int64
	gotWords    int64
	docBuf      []byte
	checksum    uint64
	pending     []pendingCommand

	// perCopy[c][l] is classifier copy c's match counter for language l
	// (§3.3: "An adder tree aggregates the match counts from the
	// individual classifier modules after the final n-gram in a
	// document is processed").
	perCopy [][]int

	selectedLang int

	// result of the last EndOfDocument fold, returned by Query Result.
	lastResult *QueryResult

	// Errors counts protocol violations (status bits in hardware).
	Errors int
}

type pendingCommand struct {
	cmd ht.Command
	at  ht.Time
}

// QueryResult is the block the hardware DMAs back to the host: match
// counters, the XOR data checksum and status bits (§4).
type QueryResult struct {
	// Counts are the folded per-language match counts.
	Counts []int
	// NGrams is the number of n-grams tested for the document.
	NGrams int
	// Checksum is the XOR of the received document words.
	Checksum uint64
	// Status is zero for a clean transfer; bits record watchdog trips
	// or protocol violations.
	Status uint32
	// Cycles is the datapath cycle count consumed by the document.
	Cycles int64
}

// Status bits.
const (
	StatusWatchdog uint32 = 1 << iota
	StatusProtocol
)

// SizeBytes is the result block's transfer size: 32 languages × 32-bit
// counters plus checksum, status and n-gram count words.
func (q *QueryResult) SizeBytes() int64 { return 32*4 + 8 + 4 + 4 }

// NewDevice builds the device model over one Parallel Bloom Filter
// per language (bloom.ParallelFilters), extracting n-grams
// as cfg says. The device owns the filters from then on: CmdProgram
// writes them and the datapath reads them.
func NewDevice(cfg core.Config, filters []*bloom.Parallel, copies int, watchdogTimeout ht.Time) (*Device, error) {
	if copies < 1 {
		return nil, fmt.Errorf("xd1000: copies=%d must be positive", copies)
	}
	e, err := ngram.NewExtractor(cfg.N)
	if err != nil {
		return nil, err
	}
	if cfg.Subsample > 1 {
		if err := e.SetSubsample(cfg.Subsample); err != nil {
			return nil, err
		}
	}
	d := &Device{
		filters:   filters,
		copies:    copies,
		extractor: e,
		watchdog:  ht.NewWatchdog(watchdogTimeout),
	}
	d.resetCounters()
	return d, nil
}

func (d *Device) resetCounters() {
	d.perCopy = make([][]int, d.copies)
	for i := range d.perCopy {
		d.perCopy[i] = make([]int, len(d.filters))
	}
}

// NGramsPerClock returns the datapath input rate (two n-grams per copy,
// §3.2).
func (d *Device) NGramsPerClock() int { return 2 * d.copies }

// Watchdog exposes the watchdog for tests and drivers.
func (d *Device) Watchdog() *ht.Watchdog { return d.watchdog }

// Command delivers one control-register write at simulated time now.
// Commands other than Reset queue while document words are outstanding
// (§4: "Subsequent commands are only processed once all the words
// expected have been received via DMA").
func (d *Device) Command(now ht.Time, cmd ht.Command) {
	if d.watchdog.Check(now) {
		d.dropDocument()
	}
	if cmd.Type == ht.CmdReset {
		d.reset()
		return
	}
	if d.state == stateReceiving && d.gotWords < d.expectWords {
		d.pending = append(d.pending, pendingCommand{cmd: cmd, at: now})
		return
	}
	d.execute(now, cmd)
}

// DeliverData delivers a DMA burst of document bytes that completed at
// simulated time now. Out-of-order arrival relative to commands is the
// caller's (driver's) responsibility to model; the device just counts
// words against the announced size.
func (d *Device) DeliverData(now ht.Time, data []byte) {
	if d.watchdog.Check(now) {
		d.dropDocument()
	}
	if d.state != stateReceiving {
		// Data with no announced document: protocol violation.
		d.Errors++
		return
	}
	d.docBuf = append(d.docBuf, data...)
	d.gotWords += ht.Words(int64(len(data)))
	d.checksum ^= ht.Checksum(data)
	if d.gotWords >= d.expectWords {
		d.watchdog.Disarm()
		d.state = stateDocReady
		// Drain commands that queued behind the data.
		pending := d.pending
		d.pending = nil
		for _, p := range pending {
			t := p.at
			if now > t {
				t = now
			}
			d.execute(t, p.cmd)
		}
	} else {
		d.watchdog.Arm(now)
	}
}

// execute runs one command immediately.
func (d *Device) execute(now ht.Time, cmd ht.Command) {
	switch cmd.Type {
	case ht.CmdSize:
		if d.state != stateIdle {
			d.Errors++
			d.dropDocument()
		}
		d.expectWords = int64(cmd.Arg)
		d.gotWords = 0
		d.docBuf = d.docBuf[:0]
		d.checksum = 0
		d.state = stateReceiving
		d.watchdog.Arm(now)
	case ht.CmdEndOfDocument:
		if d.state != stateDocReady {
			d.Errors++
			d.dropDocument()
			return
		}
		d.fold()
		d.state = stateIdle
	case ht.CmdQueryResult:
		// Result latching is handled by fold(); nothing to do in the
		// model beyond validating state.
		if d.lastResult == nil {
			d.Errors++
		}
	case ht.CmdSelectLanguage:
		if int(cmd.Arg) >= len(d.filters) {
			d.Errors++
			return
		}
		d.selectedLang = int(cmd.Arg)
	case ht.CmdProgram:
		d.filters[d.selectedLang].Program(uint32(cmd.Arg))
	default:
		d.Errors++
	}
}

// fold processes the buffered document through the datapath model:
// alphabet conversion, n-gram extraction, round-robin distribution over
// the classifier copies, per-copy Bloom tests, and the adder-tree fold.
func (d *Device) fold() {
	codes := alphabet.TranslateAll(d.docBuf)
	d.extractor.Reset()
	grams := d.extractor.Feed(nil, codes)

	for i := range d.perCopy {
		for j := range d.perCopy[i] {
			d.perCopy[i][j] = 0
		}
	}
	// Each copy tests two consecutive n-grams per clock; the stream is
	// dealt to copies in blocks of two, matching the hardware's input
	// word fan-out.
	for i, g := range grams {
		copyIdx := (i / 2) % d.copies
		for l, f := range d.filters {
			if f.Test(g) {
				d.perCopy[copyIdx][l]++
			}
		}
	}
	// Adder tree: fold per-copy counters pairwise (log2(copies) levels
	// in hardware; associative sum here).
	counts := make([]int, len(d.filters))
	for _, copyCounts := range d.perCopy {
		for l, n := range copyCounts {
			counts[l] += n
		}
	}
	var status uint32
	if d.watchdog.Trips > 0 {
		status |= StatusWatchdog
	}
	if d.Errors > 0 {
		status |= StatusProtocol
	}
	d.lastResult = &QueryResult{
		Counts:   counts,
		NGrams:   len(grams),
		Checksum: d.checksum,
		Status:   status,
		Cycles:   d.CyclesForDoc(int64(len(d.docBuf))),
	}
}

// pipelineDepth is the datapath's fill/drain cost in cycles: alphabet
// conversion, n-gram assembly, hash, RAM read, AND-reduce, counter and
// adder-tree stages.
const pipelineDepth = 24

// CyclesForDoc returns the datapath cycles to classify a document of n
// bytes: the stream feeds NGramsPerClock characters per cycle, plus the
// pipeline fill/drain.
func (d *Device) CyclesForDoc(n int64) int64 {
	per := int64(d.NGramsPerClock())
	return (n+per-1)/per + pipelineDepth
}

// Result returns the last folded result, or an error status result if
// the protocol went wrong.
func (d *Device) Result() (QueryResult, error) {
	if d.lastResult == nil {
		return QueryResult{Status: StatusProtocol}, &DeviceError{Op: "query", Detail: "no document folded"}
	}
	return *d.lastResult, nil
}

// reset implements CmdReset, the full §4 "reset the state machine"
// path: it drops the document in flight, then clears the last result,
// the watchdog and the counters. Bloom filter contents are preserved
// (the hardware clears them only when reprogramming).
func (d *Device) reset() {
	d.dropDocument()
	d.lastResult = nil
	d.watchdog.Disarm()
	d.resetCounters()
}

// dropDocument drops the document in flight and the commands queued
// behind it, returning the state machine to idle: the recovery path
// when a transfer stalls (the watchdog) or a command arrives out of
// order.
func (d *Device) dropDocument() {
	d.state = stateIdle
	d.expectWords = 0
	d.gotWords = 0
	d.docBuf = d.docBuf[:0]
	d.checksum = 0
	d.pending = nil
}

// Fits verifies that a classifier of the given configuration and
// language count fits the device and returns the modelled build report
// (§5.3).
func Fits(cfg core.Config, languages, copies int) (fpga.SystemReport, error) {
	return fpga.EstimateSystem(fpga.ModuleConfig{
		K:         cfg.K,
		MBits:     cfg.MBits,
		Languages: languages,
		Copies:    copies,
	}, fpga.EP2S180())
}
