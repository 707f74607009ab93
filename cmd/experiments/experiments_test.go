package main

import (
	"sync"
	"testing"

	"bloomlang"
	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ctrank"
	"bloomlang/internal/fpga"
	"bloomlang/internal/hail"
	"bloomlang/internal/xd1000"
)

// Shared fixtures, built once per test binary.
var (
	fixtureOnce sync.Once
	fixCorpus   *corpus.Corpus
	fixProfiles *core.ProfileSet
)

func fixtures(t testing.TB) (*corpus.Corpus, *core.ProfileSet) {
	t.Helper()
	fixtureOnce.Do(func() {
		corp, err := corpus.Generate(corpus.Config{
			DocsPerLanguage: 60,
			WordsPerDoc:     300,
			TrainFraction:   0.2,
			Seed:            17,
		})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := bloomlang.Train(core.DefaultConfig(), corp)
		if err != nil {
			t.Fatal(err)
		}
		fixCorpus, fixProfiles = corp, ps
	})
	return fixCorpus, fixProfiles
}

// TestSpaceEfficientConfig checks the paper's most space-efficient
// operating point (§5.2), which Table 1 runs as its (4 Kbit, k=6) row:
// one 4 Kbit embedded RAM per bit-vector, 24 Kbit per language,
// supporting thirty languages on the target device.
func TestSpaceEfficientConfig(t *testing.T) {
	found := false
	for _, c := range Table1Configs {
		found = found || (c.MKbits == 4 && c.K == 6)
	}
	if !found {
		t.Fatal("Table 1 lacks the space-efficient (4 Kbit, k=6) point")
	}
	k, mBits := 6, uint32(4*1024)
	// 24 Kbit per language (§5.2).
	if k*int(mBits) != 24*1024 {
		t.Error("space-efficient config is not 24 Kbit per language")
	}
	// Thirty languages on the EP2S180.
	if got := fpga.MaxLanguages(k, mBits, 4, fpga.EP2S180()); got != 30 {
		t.Errorf("MaxLanguages = %d, want 30", got)
	}
}

func TestFalsePositiveRateExported(t *testing.T) {
	// The paper's headline configuration: five per thousand.
	f := bloom.FalsePositiveRate(5000, 16*1024, 4)
	if f < 0.004 || f > 0.006 {
		t.Errorf("FalsePositiveRate = %v, want about 0.005", f)
	}
}

func TestSystemSimulationMatchesSoftware(t *testing.T) {
	corp, ps := fixtures(t)
	sys, err := xd1000.New(ps, xd1000.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Program()
	docs := corp.TestDocuments("")[:10]
	rep, err := sys.Stream(docs, xd1000.ModeAsync, true)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.NewDetector(ps, core.WithKernel(bloom.Backend, bloom.NewKernel))
	if err != nil {
		t.Fatal(err)
	}
	for i, dr := range rep.Results {
		sw, _ := det.DetectCounts(nil, docs[i].Text)
		for l := range sw {
			if dr.Result.Counts[l] != sw[l] {
				t.Fatalf("doc %d: hardware and software counts differ", i)
			}
		}
	}
}

func TestHAILPublicAPI(t *testing.T) {
	corp, ps := fixtures(t)
	h, err := hail.Build(hail.DefaultConfig(), ps.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	rep := h.Stream(corp.TestDocuments("")[:50])
	if rep.Accuracy() < 0.85 {
		t.Errorf("HAIL accuracy %.3f below 0.85", rep.Accuracy())
	}
	mbps := float64(rep.Bytes) / rep.SimTime.Seconds() / 1e6
	if mbps < 280 || mbps > 330 {
		t.Errorf("HAIL modelled throughput %.0f MB/s, want near 324", mbps)
	}
}

func TestCavnarTrenklePublicAPI(t *testing.T) {
	corp, _ := fixtures(t)
	ct, err := ctrank.TrainCorpus(ctrank.Config{}, corp)
	if err != nil {
		t.Fatal(err)
	}
	rep := ct.Measure(corp.TestDocuments("")[:30])
	if rep.Accuracy() < 0.85 {
		t.Errorf("Cavnar-Trenkle accuracy %.3f below 0.85", rep.Accuracy())
	}
}

func TestRunTable2MatchesPaperExactly(t *testing.T) {
	rows, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("Table 2 has %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if !r.Report.Calibrated {
			t.Errorf("m=%d k=%d not calibrated", r.MKbits, r.K)
		}
	}
	// Spot-check the first row against the paper.
	if rows[0].Report.Logic != 5480 || rows[0].Report.M4Ks != 128 {
		t.Errorf("row 0 = %+v, want logic 5480, M4K 128", rows[0].Report)
	}
	if FormatTable2(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestRunTable3MatchesPaperExactly(t *testing.T) {
	rows, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Table 3 has %d rows, want 2", len(rows))
	}
	if rows[0].Report.M4Ks != 680 || rows[1].Report.M4Ks != 768 {
		t.Errorf("M4K columns = %d, %d; want 680, 768", rows[0].Report.M4Ks, rows[1].Report.M4Ks)
	}
	if !rows[0].Report.Fits || !rows[1].Report.Fits {
		t.Error("published builds must fit the device")
	}
	if FormatTable3(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestRunTable1SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 sweep is slow")
	}
	scale := Scale{DocsPerLanguage: 50, WordsPerDoc: 250, TrainFraction: 0.2, Seed: 1}
	rows, err := RunTable1(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Accuracy < 0.85 {
			t.Errorf("m=%d k=%d: accuracy %.3f below 0.85", r.MKbits, r.K, r.Accuracy)
		}
		// The measured false positive rate must track the model within
		// a factor of two (sampling noise on 200k probes).
		if r.ModelFPPerMille > 2 {
			lo, hi := float64(r.ModelFPPerMille)/2, float64(r.ModelFPPerMille)*2
			if r.MeasuredFPPerMille < lo || r.MeasuredFPPerMille > hi {
				t.Errorf("m=%d k=%d: measured fp %.1f/1000 vs model %d/1000",
					r.MKbits, r.K, r.MeasuredFPPerMille, r.ModelFPPerMille)
			}
		}
	}
	// The weakest configuration (m=8, k=2) must not beat the strongest
	// (m=16, k=4): the Table 1 degradation direction.
	var strong, weak Table1Row
	for _, r := range rows {
		if r.MKbits == 16 && r.K == 4 {
			strong = r
		}
		if r.MKbits == 8 && r.K == 2 {
			weak = r
		}
	}
	if weak.Accuracy > strong.Accuracy {
		t.Errorf("m=8,k=2 accuracy %.4f exceeds m=16,k=4 accuracy %.4f", weak.Accuracy, strong.Accuracy)
	}
	if FormatTable1(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestRunFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 4 streaming is slow")
	}
	scale := Scale{DocsPerLanguage: 25, WordsPerDoc: 1300, TrainFraction: 0.15, Seed: 1}
	fig, err := RunFigure4(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 11 { // All + 10 languages
		t.Fatalf("%d points, want 11", len(fig.Points))
	}
	for _, p := range fig.Points {
		if p.AsyncMBps < 430 || p.AsyncMBps > 510 {
			t.Errorf("%s: async %.0f MB/s outside [430,510] (paper: 470)", p.Label, p.AsyncMBps)
		}
		if p.SyncMBps < 190 || p.SyncMBps > 270 {
			t.Errorf("%s: sync %.0f MB/s outside [190,270] (paper: 228)", p.Label, p.SyncMBps)
		}
		if p.AsyncMBps <= p.SyncMBps {
			t.Errorf("%s: async not faster than sync", p.Label)
		}
	}
	if fig.PaperVolumeWithProgrammingMBps < 350 || fig.PaperVolumeWithProgrammingMBps > 400 {
		t.Errorf("programming-amortized projection %.0f MB/s outside [350,400] (paper: 378)",
			fig.PaperVolumeWithProgrammingMBps)
	}
	if FormatFigure4(fig) == "" {
		t.Error("empty rendering")
	}
}

func TestRunTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table 4 comparison is slow")
	}
	scale := Scale{DocsPerLanguage: 20, WordsPerDoc: 1300, TrainFraction: 0.15, Seed: 1}
	t4, err := RunTable4(scale)
	if err != nil {
		t.Fatal(err)
	}
	// Who wins, and by roughly what factor (§5.5 / Table 4).
	if !(t4.BloomMBps > t4.HAILMBps && t4.HAILMBps > t4.MguesserMBps) {
		t.Errorf("ordering wrong: bloom %.0f, hail %.0f, software %.1f",
			t4.BloomMBps, t4.HAILMBps, t4.MguesserMBps)
	}
	if t4.SpeedupVsHAIL < 1.3 || t4.SpeedupVsHAIL > 1.7 {
		t.Errorf("speedup vs HAIL %.2f outside [1.3,1.7] (paper: 1.45)", t4.SpeedupVsHAIL)
	}
	if t4.SpeedupVsSoftware < 20 {
		t.Errorf("speedup vs software %.0f below 20x (paper: 85x)", t4.SpeedupVsSoftware)
	}
	if t4.PeakSpeedupVsHAIL < 4 || t4.PeakSpeedupVsHAIL > 6 {
		t.Errorf("peak speedup vs HAIL %.1f outside [4,6] (paper: 4.4)", t4.PeakSpeedupVsHAIL)
	}
	if FormatTable4(t4) == "" {
		t.Error("empty rendering")
	}
}

func TestRunConfusionSiblings(t *testing.T) {
	if testing.Short() {
		t.Skip("confusion evaluation is slow")
	}
	scale := Scale{DocsPerLanguage: 60, WordsPerDoc: 300, TrainFraction: 0.2, Seed: 2}
	conf, err := RunConfusion(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(conf.TopPairs) == 0 {
		t.Skip("no confusions at this scale")
	}
	// The top confusion must be a sibling pair, the paper's §5.2
	// observation (es->pt, et->fi, and the cs/sk, da/sv analogues).
	siblings := map[string]string{
		"es": "pt", "pt": "es",
		"cs": "sk", "sk": "cs",
		"da": "sv", "sv": "da",
		"fi": "et", "et": "fi",
	}
	top := conf.TopPairs[0]
	if siblings[top.Truth] != top.Predicted {
		t.Errorf("top confusion %s->%s is not a sibling pair", top.Truth, top.Predicted)
	}
	if FormatConfusion(conf) == "" {
		t.Error("empty rendering")
	}
}

// TestSubsampleAblationTable pins the §5.2 ablation at -scale small.
// Subsampling is the XD1000 model's alone, so a change to the detector
// or the n-gram register must not move these digits.
func TestSubsampleAblationTable(t *testing.T) {
	scale, _, err := scales("small")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunSubsampleAblation(scale)
	if err != nil {
		t.Fatal(err)
	}
	want := "Subsampling ablation (k=4, m=16 Kbits): languages supported vs accuracy (§5.2)\n" +
		"Subsample  Accuracy  Max languages\n" +
		"----------------------------------\n" +
		"1 in 1     98.24%    11           \n" +
		"1 in 2     97.25%    22           \n" +
		"1 in 4     96.67%    44           \n"
	if got := FormatSubsampleAblation(rows); got != want {
		t.Errorf("ablation table\n%s\nwant\n%s", got, want)
	}
}
