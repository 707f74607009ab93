package xd1000

import (
	"fmt"

	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/fpga"
	"bloomlang/internal/ht"
)

// Options configures a simulated XD1000 system.
type Options struct {
	// Copies is the classifier replication factor; 4 copies accept
	// 8 n-grams per clock (§3.3).
	Copies int
	// Link is the fabric model; zero value means the paper's measured
	// platform (ht.XD1000Config).
	Link ht.LinkConfig
	// WatchdogTimeout guards stalled transfers; zero means 1 ms.
	WatchdogTimeout ht.Time
	// FreqMHz overrides the modelled clock; zero uses the fpga package
	// estimate for the build.
	FreqMHz float64
	// Faults optionally injects transfer errors, exercising the §4
	// error-handling paths (XOR checksum, watchdog reset).
	Faults FaultConfig
	// Trace, when non-nil, records a timeline of simulated events
	// (PIO writes, DMA transfers, folds, interrupts, recoveries).
	Trace *Trace
}

// FaultConfig injects deterministic transfer faults.
type FaultConfig struct {
	// CorruptEveryN flips one byte of every Nth document while it
	// crosses the link (0 disables). The hardware classifies the
	// corrupted bytes; the host detects the damage by comparing the
	// returned XOR checksum (§4) against its own.
	CorruptEveryN int
	// StallEveryN delivers only half of every Nth document's words and
	// then goes silent (0 disables). The device's watchdog resets the
	// state machine; the host retries the document.
	StallEveryN int
}

func (o *Options) applyDefaults() {
	if o.Copies == 0 {
		o.Copies = 4
	}
	if o.Link.PeakBytesPerSec == 0 {
		o.Link = ht.XD1000Config()
	}
	if o.WatchdogTimeout == 0 {
		o.WatchdogTimeout = ht.Millisecond
	}
}

// System is the complete simulated machine: host driver, timed link and
// FPGA device.
type System struct {
	dev        *Device
	link       *ht.TimedLink
	opts       Options
	build      fpga.SystemReport
	profileSet *core.ProfileSet
	now        ht.Time
	// procFree is when the datapath finishes its current document.
	procFree ht.Time
	// programTime is the simulated cost of the preprocessing step.
	programTime ht.Time
	programmed  bool
}

// New builds a simulated system for a trained profile set. The Bloom
// filters start empty; call Program (or stream with programming
// included) before classifying.
func New(ps *core.ProfileSet, opts Options) (*System, error) {
	opts.applyDefaults()
	// The device starts with empty filters; Program fills them through
	// the command interface exactly as the hardware is filled.
	filters, err := bloom.ParallelFilters(ps)
	if err != nil {
		return nil, err
	}
	for _, f := range filters {
		f.Reset()
	}
	dev, err := NewDevice(ps.Config, filters, opts.Copies, opts.WatchdogTimeout)
	if err != nil {
		return nil, err
	}
	link, err := ht.NewLink(opts.Link)
	if err != nil {
		return nil, err
	}
	build, err := Fits(ps.Config, len(filters), opts.Copies)
	if err != nil {
		return nil, err
	}
	if opts.FreqMHz > 0 {
		build.FreqMHz = opts.FreqMHz
	}
	if !build.Fits {
		return nil, fmt.Errorf("xd1000: configuration does not fit the EP2S180 (%d languages, k=%d, m=%d bits: %d M4Ks)",
			len(filters), ps.Config.K, ps.Config.MBits, build.M4Ks)
	}
	return &System{dev: dev, link: link, opts: opts, build: build, profileSet: ps}, nil
}

// Device exposes the FPGA model (tests, examples).
func (s *System) Device() *Device { return s.dev }

// Build returns the modelled device build report.
func (s *System) Build() fpga.SystemReport { return s.build }

// Link exposes the timed link.
func (s *System) Link() *ht.TimedLink { return s.link }

// Now returns the current simulated time.
func (s *System) Now() ht.Time { return s.now }

// cycleTime returns one datapath clock period.
func (s *System) cycleTime() ht.Time {
	return ht.Time(float64(ht.Second) / (s.build.FreqMHz * 1e6))
}

// Program performs the preprocessing step (§4): clears the bit-vectors
// and programs every language profile through the command interface.
// Each n-gram costs a command/acknowledge handshake on the register
// path (calibrated so ten 5,000-n-gram profiles cost ≈0.25 s, the gap
// between the paper's 470 and 378 MB/s figures).
func (s *System) Program() ht.Time {
	start := s.now
	now := s.now
	now = s.link.PIOWrite(now)
	s.dev.Command(now, ht.Command{Type: ht.CmdReset})
	s.opts.Trace.add(now, TraceCommand, "reset, begin programming")
	for li, p := range s.profileSet.Profiles {
		now = s.link.PIOWrite(now)
		s.dev.Command(now, ht.Command{Type: ht.CmdSelectLanguage, Arg: uint64(li)})
		for _, g := range p.Grams {
			// Command word, data word, acknowledge poll: three register
			// operations per programmed n-gram.
			now = s.link.PIOWrite(now)
			now = s.link.PIOWrite(now)
			now = s.link.PIOWrite(now)
			s.dev.Command(now, ht.Command{Type: ht.CmdProgram, Arg: uint64(g)})
		}
		s.opts.Trace.add(now, TraceCommand, "programmed %q (%d n-grams)", p.Language, p.Size())
	}
	s.now = now
	s.programTime = now - start
	s.programmed = true
	return s.programTime
}

// Programmed reports whether Program has run.
func (s *System) Programmed() bool { return s.programmed }

// ProgramTime returns the simulated preprocessing cost.
func (s *System) ProgramTime() ht.Time { return s.programTime }

// DocResult pairs a document with its hardware classification.
type DocResult struct {
	Doc    corpus.Document
	Result QueryResult
	// ChecksumOK is the host-side verification of the XOR checksum.
	ChecksumOK bool
}

// RunReport summarizes a streaming run, in the units of Figure 4 and
// §5.4.
type RunReport struct {
	// Docs is the number of documents streamed.
	Docs int
	// Bytes is the total document volume.
	Bytes int64
	// SimTime is the simulated wall-clock for transfer + classification
	// (excluding programming, like the paper's headline numbers).
	SimTime ht.Time
	// ProgramTime is the separately-tracked preprocessing cost.
	ProgramTime ht.Time
	// Correct counts documents classified as their true language.
	Correct int
	// ChecksumFailures counts result blocks whose XOR checksum did not
	// match the host's copy.
	ChecksumFailures int
	// Retries counts documents re-sent after a stalled transfer.
	Retries int
	// WatchdogTrips counts device watchdog recoveries during the run.
	WatchdogTrips int
	// Results holds per-document outcomes (nil unless requested).
	Results []DocResult
}

// MBPerSec returns throughput in MB/sec (2^20), excluding programming.
func (r RunReport) MBPerSec() float64 {
	s := r.SimTime.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Bytes) / (1 << 20) / s
}

// MBPerSecWithProgramming includes the preprocessing cost, the §5.4
// "drops to 378 MB/sec" accounting.
func (r RunReport) MBPerSecWithProgramming() float64 {
	s := (r.SimTime + r.ProgramTime).Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Bytes) / (1 << 20) / s
}

// Accuracy returns the fraction of documents classified correctly.
func (r RunReport) Accuracy() float64 {
	if r.Docs == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Docs)
}

// Mode selects the host driver of §5.4.
type Mode int

const (
	// ModeSync is the first software version: tight synchronization,
	// a hardware interrupt after every document before results are
	// read ("interrupt based synchronization produces detrimental
	// performance for a streaming architecture").
	ModeSync Mode = iota
	// ModeAsync is the second version: no interrupts; one thread
	// streams documents while another collects FPGA-initiated result
	// DMAs.
	ModeAsync
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeSync {
		return "synchronous"
	}
	return "asynchronous"
}

// Stream pushes a labelled document set through the system in the given
// mode and returns the run report. keepResults retains per-document
// outcomes.
func (s *System) Stream(docs []corpus.Document, mode Mode, keepResults bool) (RunReport, error) {
	if !s.programmed {
		return RunReport{}, fmt.Errorf("xd1000: stream before Program")
	}
	rep := RunReport{Docs: len(docs), ProgramTime: s.programTime}
	start := s.now
	langs := s.profileSet.Languages()
	cycle := s.cycleTime()
	trips0 := s.dev.Watchdog().Trips
	for i, d := range docs {
		rep.Bytes += int64(len(d.Text))
		payload := d.Text
		faults := s.opts.Faults
		if faults.StallEveryN > 0 && (i+1)%faults.StallEveryN == 0 {
			s.stallAndRecover(payload)
			rep.Retries++
		}
		if faults.CorruptEveryN > 0 && (i+1)%faults.CorruptEveryN == 0 && len(payload) > 0 {
			corrupted := append([]byte(nil), payload...)
			corrupted[len(corrupted)/2] ^= 0xA5
			payload = corrupted
		}
		var qr QueryResult
		var err error
		switch mode {
		case ModeSync:
			qr, err = s.sendDocSync(payload, cycle)
		case ModeAsync:
			qr, err = s.sendDocAsync(payload, cycle)
		default:
			return rep, fmt.Errorf("xd1000: unknown mode %d", mode)
		}
		if err != nil {
			return rep, err
		}
		// The host verifies against the checksum of what it intended to
		// send; link corruption shows up as a mismatch.
		ok := qr.Checksum == ht.Checksum(d.Text)
		if !ok {
			rep.ChecksumFailures++
		}
		if best(qr.Counts) >= 0 && langs[best(qr.Counts)] == d.Language {
			rep.Correct++
		}
		if keepResults {
			rep.Results = append(rep.Results, DocResult{Doc: d, Result: qr, ChecksumOK: ok})
		}
	}
	rep.WatchdogTrips = s.dev.Watchdog().Trips - trips0
	// Drain: wait for the datapath to finish the final document.
	if s.procFree > s.now {
		s.now = s.procFree
	}
	rep.SimTime = s.now - start
	return rep, nil
}

// stallAndRecover models a stalled transfer: the host announces the
// document and delivers only half its words, then goes silent. The
// device watchdog expires, the state machine resets, and the host —
// noticing no result arrived — waits out its own timeout and retries
// (the retry itself is issued by the caller, which re-sends the
// document normally).
func (s *System) stallAndRecover(doc []byte) {
	words := ht.Words(int64(len(doc)))
	now := s.link.PIOWrite(s.now)
	s.dev.Command(now, ht.Command{Type: ht.CmdSize, Arg: uint64(words)})
	half := len(doc) / 2
	now = s.link.DMADown(now, int64(half))
	s.dev.DeliverData(now, doc[:half])
	// Host-side timeout: wait past the device watchdog, then issue a
	// Reset to be safe (the §4 recovery path) before retrying.
	now += s.opts.WatchdogTimeout + 10*ht.Microsecond
	s.opts.Trace.add(now, TraceWatchdog, "transfer stalled at %d/%d bytes", half, len(doc))
	now = s.link.PIOWrite(now)
	s.dev.Command(now, ht.Command{Type: ht.CmdReset})
	s.opts.Trace.add(now, TraceRetry, "host reset, retrying document")
	s.now = now
}

func best(counts []int) int {
	bi := -1
	for i, n := range counts {
		if bi == -1 || n > counts[bi] {
			bi = i
		}
	}
	return bi
}

// sendDocSync is the §5.4 first version: separate PIO commands around
// the DMA, a Query Result request, and a hardware interrupt as the
// synchronization point before the host reads the counters.
func (s *System) sendDocSync(doc []byte, cycle ht.Time) (QueryResult, error) {
	// Size command.
	now := s.link.PIOWrite(s.now)
	s.dev.Command(now, ht.Command{Type: ht.CmdSize, Arg: uint64(ht.Words(int64(len(doc))))})
	s.opts.Trace.add(now, TracePIO, "size=%d words", ht.Words(int64(len(doc))))
	// Document DMA.
	now = s.link.DMADown(now, int64(len(doc)))
	s.dev.DeliverData(now, doc)
	s.opts.Trace.add(now, TraceDMADown, "%d bytes", len(doc))
	// Processing overlaps the transfer; it finishes pipelineDepth-plus
	// cycles after the last word.
	procEnd := now + ht.Time(s.dev.CyclesForDoc(int64(len(doc))))*cycle
	if prev := s.procFree; prev > now {
		procEnd = prev + ht.Time(s.dev.CyclesForDoc(int64(len(doc))))*cycle
	}
	s.procFree = procEnd
	// End of document + query result commands.
	now = s.link.PIOWrite(now)
	s.dev.Command(now, ht.Command{Type: ht.CmdEndOfDocument})
	now = s.link.PIOWrite(now)
	s.dev.Command(now, ht.Command{Type: ht.CmdQueryResult})
	if procEnd > now {
		now = procEnd
	}
	qr, err := s.dev.Result()
	if err != nil {
		return qr, err
	}
	// Result DMA back to the host, then the interrupt round trip.
	now = s.link.DMAUp(now, qr.SizeBytes())
	s.opts.Trace.add(now, TraceDMAUp, "query result (%d bytes)", qr.SizeBytes())
	now = s.link.Interrupt(now)
	s.opts.Trace.add(now, TraceInterrupt, "host resumed")
	s.now = now
	return qr, nil
}

// sendDocAsync is the §5.4 second version: the size command, document
// words and end-of-document marker ride a single DMA descriptor; the
// hardware stops accepting commands until the document is fully read,
// so no synchronization is needed, and results return by FPGA-initiated
// DMA that overlaps the next document's transfer.
func (s *System) sendDocAsync(doc []byte, cycle ht.Time) (QueryResult, error) {
	words := ht.Words(int64(len(doc)))
	// One descriptor carries command word + document + EOD word.
	payload := (words + 2) * ht.WordBytes
	now := s.link.DMADown(s.now, payload)
	s.dev.Command(now, ht.Command{Type: ht.CmdSize, Arg: uint64(words)})
	s.dev.DeliverData(now, doc)
	s.dev.Command(now, ht.Command{Type: ht.CmdEndOfDocument})
	s.opts.Trace.add(now, TraceDMADown, "descriptor: size+%d bytes+eod", len(doc))

	procStart := now
	if s.procFree > procStart {
		procStart = s.procFree
	}
	procEnd := procStart + ht.Time(s.dev.CyclesForDoc(int64(len(doc))))*cycle
	s.procFree = procEnd

	qr, err := s.dev.Result()
	if err != nil {
		return qr, err
	}
	// FPGA-initiated result DMA rides the independent uplink; the
	// collector thread consumes it without stalling the sender. The
	// sender's clock only advances by the downlink time.
	upEnd := s.link.DMAUp(procEnd, qr.SizeBytes())
	s.opts.Trace.add(procEnd, TraceFold, "document folded (%d n-grams)", qr.NGrams)
	s.opts.Trace.add(upEnd, TraceDMAUp, "fpga-initiated result")
	s.now = now
	return qr, nil
}

// PeakMBPerSec returns the theoretical datapath rate (§5.4): clock ×
// n-grams/clock bytes.
func (s *System) PeakMBPerSec() float64 {
	return fpga.PeakThroughputMBps(s.build.FreqMHz, s.dev.NGramsPerClock())
}
