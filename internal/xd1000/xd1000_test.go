package xd1000

import (
	"testing"

	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ht"
)

// testCorpus generates a paper-shaped corpus (10 languages, 1300-word
// documents ≈ 10 KB files) once per test binary; several tests share it.
var (
	sharedCorpus *corpus.Corpus
	sharedSet    *core.ProfileSet
)

func setup(t testing.TB) (*corpus.Corpus, *core.ProfileSet) {
	t.Helper()
	if sharedCorpus == nil {
		cfg := corpus.Config{
			DocsPerLanguage: 12,
			WordsPerDoc:     1300,
			TrainFraction:   0.25,
			Seed:            11,
		}
		c, err := corpus.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := core.TrainFromTexts(core.DefaultConfig(), c.TrainTextsByLanguage())
		if err != nil {
			t.Fatal(err)
		}
		sharedCorpus, sharedSet = c, ps
	}
	return sharedCorpus, sharedSet
}

func newSystem(t testing.TB, opts Options) *System {
	t.Helper()
	_, ps := setup(t)
	s, err := New(ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidatesFit(t *testing.T) {
	_, ps := setup(t)
	// 10 languages at k=4/m=16Kbit fits (Table 3 row 1)...
	if _, err := New(ps, Options{}); err != nil {
		t.Fatalf("paper configuration rejected: %v", err)
	}
	// ...but 10 languages at k=8/m=64Kbit needs 5120 M4Ks and must not.
	big := *ps
	big.Config.K = 8
	big.Config.MBits = 64 * 1024
	bigPS, err := core.TrainFromTexts(big.Config, map[string][][]byte{
		"aa": {[]byte("some training text for a fake language")},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Re-train is cheap for one language but the language count matters:
	// use the paper corpus languages instead by reusing profiles.
	bigPS.Profiles = ps.Profiles
	bigPS.Config.K = 8
	bigPS.Config.MBits = 64 * 1024
	if _, err := New(bigPS, Options{}); err == nil {
		t.Error("oversized configuration accepted")
	}
}

func TestStreamRequiresProgramming(t *testing.T) {
	corp, _ := setup(t)
	s := newSystem(t, Options{})
	if _, err := s.Stream(corp.TestDocuments("en"), ModeAsync, false); err == nil {
		t.Error("Stream before Program succeeded")
	}
}

func TestProgramTime(t *testing.T) {
	corp, ps := setup(t)
	_ = corp
	s := newSystem(t, Options{})
	pt := s.Program()
	if !s.Programmed() {
		t.Fatal("Programmed() false after Program")
	}
	// Each programmed n-gram costs three PIO writes (command, data,
	// acknowledge); check the simulated time matches that model within
	// 10%, and that the full-scale arithmetic (10 × 5,000 n-grams)
	// reproduces the §5.4 programming amortization of about 0.25 s.
	total := 0
	for _, p := range ps.Profiles {
		total += p.Size()
	}
	pio := s.Link().Config().PIOWriteLatency
	want := ht.Time(total) * 3 * pio
	if pt < want || pt > want+want/10+ht.Millisecond {
		t.Errorf("programming time %v, want about %v for %d n-grams", pt, want, total)
	}
	fullScale := (ht.Time(10*5000) * 3 * pio).Seconds()
	if fullScale < 0.2 || fullScale > 0.3 {
		t.Errorf("full-scale programming model = %.3fs, want about 0.25", fullScale)
	}
}

// The headline Figure 4 shape: the asynchronous driver reaches ≈470
// MB/s (decimal, as the paper counts) and the synchronous driver about
// half that.
func TestFigure4ThroughputShape(t *testing.T) {
	corp, _ := setup(t)
	docs := corp.TestDocuments("")

	async := newSystem(t, Options{})
	async.Program()
	aRep, err := async.Stream(docs, ModeAsync, false)
	if err != nil {
		t.Fatal(err)
	}
	aDec := float64(aRep.Bytes) / aRep.SimTime.Seconds() / 1e6

	sync := newSystem(t, Options{})
	sync.Program()
	sRep, err := sync.Stream(docs, ModeSync, false)
	if err != nil {
		t.Fatal(err)
	}
	sDec := float64(sRep.Bytes) / sRep.SimTime.Seconds() / 1e6

	t.Logf("async %.1f MB/s, sync %.1f MB/s (decimal); paper: 470 / 228", aDec, sDec)
	if aDec < 440 || aDec > 500 {
		t.Errorf("async throughput %.1f MB/s outside [440,500] (paper: 470)", aDec)
	}
	if sDec < 200 || sDec > 260 {
		t.Errorf("sync throughput %.1f MB/s outside [200,260] (paper: 228)", sDec)
	}
	ratio := aDec / sDec
	if ratio < 1.7 || ratio > 2.4 {
		t.Errorf("async/sync ratio %.2f, paper shows about 2x", ratio)
	}
	// Programming amortization: including it must land near 378 MB/s
	// when the streamed volume matches the paper's scale; at our test
	// scale it simply must reduce throughput.
	if aRep.MBPerSecWithProgramming() >= aRep.MBPerSec() {
		t.Error("programming time did not reduce effective throughput")
	}
}

func TestAccuracyThroughHardwarePath(t *testing.T) {
	corp, _ := setup(t)
	s := newSystem(t, Options{})
	s.Program()
	rep, err := s.Stream(corp.TestDocuments(""), ModeAsync, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy() < 0.9 {
		t.Errorf("hardware-path accuracy %.3f below 0.9", rep.Accuracy())
	}
	if rep.ChecksumFailures != 0 {
		t.Errorf("%d checksum failures on clean link", rep.ChecksumFailures)
	}
}

// The integration guarantee: the simulated hardware datapath and the
// pure-software classifier produce identical match counts, because both
// build their Bloom filters with bloom.ParallelFilters (the
// device's programmed through the command interface).
func TestHardwareMatchesSoftwareExactly(t *testing.T) {
	corp, ps := setup(t)
	s := newSystem(t, Options{})
	s.Program()

	sw, err := core.NewDetector(ps, core.WithKernel(bloom.Backend, bloom.NewKernel))
	if err != nil {
		t.Fatal(err)
	}
	docs := corp.TestDocuments("")[:12]
	rep, err := s.Stream(docs, ModeAsync, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, dr := range rep.Results {
		counts, want := sw.DetectCounts(nil, docs[i].Text)
		got := dr.Result
		if got.NGrams != want.NGrams {
			t.Fatalf("doc %d: hardware tested %d n-grams, software %d", i, got.NGrams, want.NGrams)
		}
		for l := range counts {
			if got.Counts[l] != counts[l] {
				t.Fatalf("doc %d language %d: hardware count %d != software %d",
					i, l, got.Counts[l], counts[l])
			}
		}
	}
}

func TestSyncAndAsyncAgreeFunctionally(t *testing.T) {
	corp, _ := setup(t)
	docs := corp.TestDocuments("fi")[:4]

	a := newSystem(t, Options{})
	a.Program()
	ra, err := a.Stream(docs, ModeAsync, true)
	if err != nil {
		t.Fatal(err)
	}
	b := newSystem(t, Options{})
	b.Program()
	rb, err := b.Stream(docs, ModeSync, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra.Results {
		ca, cb := ra.Results[i].Result.Counts, rb.Results[i].Result.Counts
		for l := range ca {
			if ca[l] != cb[l] {
				t.Fatalf("doc %d: sync/async counts differ at language %d", i, l)
			}
		}
	}
}

func TestImprovedLinkApproachesPeak(t *testing.T) {
	corp, _ := setup(t)
	docs := corp.TestDocuments("")
	s := newSystem(t, Options{Link: ht.ImprovedConfig()})
	s.Program()
	rep, err := s.Stream(docs, ModeAsync, false)
	if err != nil {
		t.Fatal(err)
	}
	mbps := rep.MBPerSec()
	peak := s.PeakMBPerSec()
	t.Logf("improved-link throughput %.0f MB/s, datapath peak %.0f MB/s", mbps, peak)
	// §5.5: with the cap removed the system should run at GB/s scale,
	// several times the capped 470 and within reach of the peak.
	if mbps < 1000 {
		t.Errorf("improved-link throughput %.0f MB/s below 1000", mbps)
	}
	if mbps > peak {
		t.Errorf("throughput %.0f exceeds datapath peak %.0f", mbps, peak)
	}
	if peak < 1400 || peak > 1500 {
		t.Errorf("peak %.0f MB/s, want about 1480 (194 MHz × 8)", peak)
	}
}

func TestPeakMatchesPaperArithmetic(t *testing.T) {
	s := newSystem(t, Options{})
	// 194 MHz × 8 n-grams/clock = 1,552 million n-grams/sec.
	perSec := s.Build().FreqMHz * 1e6 * float64(s.Device().NGramsPerClock())
	if perSec != 1552e6 {
		t.Errorf("n-grams/sec = %g, want 1.552e9", perSec)
	}
}

func TestBuildReport(t *testing.T) {
	s := newSystem(t, Options{})
	b := s.Build()
	if !b.Calibrated {
		t.Error("10-language paper build not served from Table 3 calibration")
	}
	if b.M4Ks != 680 || b.FreqMHz != 194 {
		t.Errorf("build = %d M4Ks at %.0f MHz, want 680 at 194", b.M4Ks, b.FreqMHz)
	}
}

func TestFreqOverride(t *testing.T) {
	s := newSystem(t, Options{FreqMHz: 100})
	if s.Build().FreqMHz != 100 {
		t.Errorf("override ignored: %v", s.Build().FreqMHz)
	}
}
