package xd1000

import (
	"strings"
	"testing"

	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/ht"
	"bloomlang/internal/train"
)

// testProfiles trains a small two-language profile set.
func testProfiles(t *testing.T) *core.ProfileSet {
	t.Helper()
	ps, _, err := train.Texts(core.Config{TopT: 500, Seed: 3}, map[string][][]byte{
		"en": {[]byte("the quick brown fox jumps over the lazy dog and then the fox rests")},
		"fi": {[]byte("nopea ruskea kettu hyppii laiskan koiran yli ja sitten kettu nukkuu")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// newTestDevice builds a device over testProfiles' filters, programmed
// through the software path.
func newTestDevice(t *testing.T, watchdog ht.Time) *Device {
	t.Helper()
	ps := testProfiles(t)
	filters, err := bloom.ParallelFilters(ps)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(ps.Config, filters, 4, watchdog)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sendDoc walks a document through the protocol at the given times.
func sendDoc(d *Device, at ht.Time, doc []byte) {
	d.Command(at, ht.Command{Type: ht.CmdSize, Arg: uint64(ht.Words(int64(len(doc))))})
	d.DeliverData(at+ht.Microsecond, doc)
	d.Command(at+2*ht.Microsecond, ht.Command{Type: ht.CmdEndOfDocument})
	d.Command(at+3*ht.Microsecond, ht.Command{Type: ht.CmdQueryResult})
}

func TestNewDeviceValidation(t *testing.T) {
	ps, _, _ := train.Texts(core.Config{TopT: 100, Seed: 1}, map[string][][]byte{
		"en": {[]byte("validation text that is long enough for n-grams")},
	})
	filters, _ := bloom.ParallelFilters(ps)
	if _, err := NewDevice(ps.Config, filters, 0, ht.Millisecond); err == nil {
		t.Error("device accepted zero copies")
	}
}

func TestDeviceBasicDocument(t *testing.T) {
	d := newTestDevice(t, ht.Millisecond)
	doc := []byte("the quick brown fox jumps over the lazy dog")
	sendDoc(d, 0, doc)
	qr, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	if qr.Status != 0 {
		t.Errorf("status = %#x, want 0", qr.Status)
	}
	if qr.Checksum != ht.Checksum(doc) {
		t.Error("checksum mismatch on clean transfer")
	}
	if qr.NGrams != len(doc)-3 {
		t.Errorf("NGrams = %d, want %d", qr.NGrams, len(doc)-3)
	}
	if qr.Counts[0] <= qr.Counts[1] {
		t.Errorf("English doc counts = %v, want en > fi", qr.Counts)
	}
	if qr.Cycles <= 0 {
		t.Error("no cycles recorded")
	}
}

func TestDeviceCommandsQueueBehindData(t *testing.T) {
	// §4: commands arriving before the DMA words must wait.
	d := newTestDevice(t, ht.Millisecond)
	doc := []byte("the quick brown fox jumps over the lazy dog")
	d.Command(0, ht.Command{Type: ht.CmdSize, Arg: uint64(ht.Words(int64(len(doc))))})
	// EOD arrives out of order, before any data.
	d.Command(ht.Microsecond, ht.Command{Type: ht.CmdEndOfDocument})
	if d.Errors != 0 {
		t.Fatal("early EOD executed instead of queueing")
	}
	// Data lands; the queued EOD should then fold the document.
	d.DeliverData(2*ht.Microsecond, doc)
	qr, err := d.Result()
	if err != nil {
		t.Fatalf("queued EOD did not execute: %v", err)
	}
	if qr.Status != 0 || qr.NGrams == 0 {
		t.Errorf("out-of-order run produced %+v", qr)
	}
}

func TestDeviceSplitDelivery(t *testing.T) {
	// DMA bursts may split a document arbitrarily.
	d := newTestDevice(t, ht.Millisecond)
	doc := []byte("the quick brown fox jumps over the lazy dogs")
	d.Command(0, ht.Command{Type: ht.CmdSize, Arg: uint64(ht.Words(int64(len(doc))))})
	// Split on a word boundary (8 bytes), as the DMA engine does.
	d.DeliverData(ht.Microsecond, doc[:16])
	d.DeliverData(2*ht.Microsecond, doc[16:])
	d.Command(3*ht.Microsecond, ht.Command{Type: ht.CmdEndOfDocument})
	qr, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	if qr.Checksum != ht.Checksum(doc) {
		t.Error("split delivery corrupted checksum")
	}
	if qr.NGrams != len(doc)-3 {
		t.Errorf("split delivery NGrams = %d, want %d", qr.NGrams, len(doc)-3)
	}
}

func TestDeviceWatchdogRecoversStalledTransfer(t *testing.T) {
	d := newTestDevice(t, 100*ht.Microsecond)
	// Announce a document but deliver only half the words.
	d.Command(0, ht.Command{Type: ht.CmdSize, Arg: 10})
	d.DeliverData(ht.Microsecond, make([]byte, 24)) // 3 of 10 words
	if !d.Watchdog().Armed() {
		t.Fatal("watchdog not armed during partial transfer")
	}
	// Far later, the host gives up and starts a fresh document; the
	// watchdog must have reset the state machine so this succeeds.
	doc := []byte("the quick brown fox jumps over the lazy dog")
	sendDoc(d, ht.Second, doc)
	qr, err := d.Result()
	if err != nil {
		t.Fatalf("device did not recover after stall: %v", err)
	}
	if d.Watchdog().Trips != 1 {
		t.Errorf("watchdog trips = %d, want 1", d.Watchdog().Trips)
	}
	if qr.Status&StatusWatchdog == 0 {
		t.Error("status does not report the watchdog trip")
	}
	if qr.Checksum != ht.Checksum(doc) {
		t.Error("post-recovery document corrupted")
	}
}

func TestDeviceChecksumDetectsCorruption(t *testing.T) {
	d := newTestDevice(t, ht.Millisecond)
	doc := []byte("the quick brown fox jumps over the lazy dog")
	corrupted := append([]byte(nil), doc...)
	corrupted[10] ^= 0xFF // a flipped byte in flight
	d.Command(0, ht.Command{Type: ht.CmdSize, Arg: uint64(ht.Words(int64(len(doc))))})
	d.DeliverData(ht.Microsecond, corrupted)
	d.Command(2*ht.Microsecond, ht.Command{Type: ht.CmdEndOfDocument})
	qr, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	// The host compares against the checksum of what it sent.
	if qr.Checksum == ht.Checksum(doc) {
		t.Error("corruption not detectable via checksum")
	}
}

func TestDeviceProtocolViolations(t *testing.T) {
	d := newTestDevice(t, ht.Millisecond)
	// Data without a Size command.
	d.DeliverData(0, []byte("orphan data"))
	if d.Errors == 0 {
		t.Error("orphan data not flagged")
	}
	// EOD in idle state.
	d.Command(ht.Microsecond, ht.Command{Type: ht.CmdEndOfDocument})
	if d.Errors < 2 {
		t.Error("idle EOD not flagged")
	}
	// QueryResult with nothing folded.
	d.Command(2*ht.Microsecond, ht.Command{Type: ht.CmdQueryResult})
	if d.Errors < 3 {
		t.Error("query with no result not flagged")
	}
	if _, err := d.Result(); err == nil {
		t.Error("Result succeeded with nothing folded")
	}
	// Unknown command.
	d.Command(3*ht.Microsecond, ht.Command{Type: ht.CommandType(200)})
	if d.Errors < 4 {
		t.Error("unknown command not flagged")
	}
	// A valid document must still report the protocol status bit.
	doc := []byte("the quick brown fox jumps over the lazy dog")
	sendDoc(d, ht.Millisecond, doc)
	qr, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	if qr.Status&StatusProtocol == 0 {
		t.Error("protocol violations not visible in status")
	}
}

func TestDeviceDoubleSizeResets(t *testing.T) {
	d := newTestDevice(t, ht.Millisecond)
	d.Command(0, ht.Command{Type: ht.CmdSize, Arg: 100})
	// The host crashes and restarts the document with a new Size while
	// no data ever arrived: must be flagged but recovered.
	d.DeliverData(ht.Microsecond, make([]byte, 800))
	d.Command(2*ht.Microsecond, ht.Command{Type: ht.CmdSize, Arg: 6})
	doc := []byte("the quick brown fox jumps over the lazy dog")
	if d.Errors == 0 {
		t.Error("unexpected Size not flagged")
	}
	// Continue with a clean document.
	d.Command(ht.Millisecond, ht.Command{Type: ht.CmdReset})
	sendDoc(d, 2*ht.Millisecond, doc)
	if _, err := d.Result(); err != nil {
		t.Fatalf("device did not recover: %v", err)
	}
}

func TestDeviceResetClearsState(t *testing.T) {
	d := newTestDevice(t, ht.Millisecond)
	doc := []byte("the quick brown fox jumps over the lazy dog")
	sendDoc(d, 0, doc)
	d.Command(ht.Millisecond, ht.Command{Type: ht.CmdReset})
	if _, err := d.Result(); err == nil {
		t.Error("result survived reset")
	}
	// Filters survive reset (profiles are not reprogrammed per §4's
	// reset path), so a new document still classifies.
	sendDoc(d, 2*ht.Millisecond, doc)
	qr, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	if qr.Counts[0] == 0 {
		t.Error("filters lost their profiles across reset")
	}
}

func TestDeviceSelectLanguageValidation(t *testing.T) {
	d := newTestDevice(t, ht.Millisecond)
	d.Command(0, ht.Command{Type: ht.CmdSelectLanguage, Arg: 99})
	if d.Errors == 0 {
		t.Error("out-of-range language select not flagged")
	}
}

func TestDevicePerCopyFoldEqualsTotal(t *testing.T) {
	// The adder tree must not lose counts: fold across copies equals a
	// single-classifier count.
	d := newTestDevice(t, ht.Millisecond)
	doc := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog ", 10))
	sendDoc(d, 0, doc)
	qr, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	sw, err := core.NewDetector(testProfiles(t), core.WithKernel(bloom.Backend, bloom.NewKernel))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sw.DetectCounts(nil, doc)
	for l := range want {
		if qr.Counts[l] != want[l] {
			t.Errorf("language %d: device %d != detector %d", l, qr.Counts[l], want[l])
		}
	}
}

func TestCyclesForDoc(t *testing.T) {
	d := newTestDevice(t, ht.Millisecond)
	// 8 n-grams/clock: an 80-byte document takes 10 cycles + pipeline.
	if got := d.CyclesForDoc(80); got != 10+pipelineDepth {
		t.Errorf("CyclesForDoc(80) = %d, want %d", got, 10+pipelineDepth)
	}
	if got := d.CyclesForDoc(81); got != 11+pipelineDepth {
		t.Errorf("CyclesForDoc(81) = %d, want %d", got, 11+pipelineDepth)
	}
	if d.NGramsPerClock() != 8 {
		t.Errorf("NGramsPerClock = %d, want 8", d.NGramsPerClock())
	}
}

func TestQueryResultSize(t *testing.T) {
	qr := &QueryResult{}
	if qr.SizeBytes() != 144 {
		t.Errorf("result block = %d bytes, want 144", qr.SizeBytes())
	}
}

func TestDeviceErrorMessage(t *testing.T) {
	e := &DeviceError{Op: "query", Detail: "no document folded"}
	if !strings.Contains(e.Error(), "query") || !strings.Contains(e.Error(), "folded") {
		t.Errorf("unhelpful error: %q", e.Error())
	}
}
