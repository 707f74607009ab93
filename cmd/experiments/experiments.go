package main

import (
	"fmt"
	"math/rand"

	"bloomlang"
	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ctrank"
	"bloomlang/internal/fpga"
	"bloomlang/internal/hail"
	"bloomlang/internal/ht"
	"bloomlang/internal/report"
	"bloomlang/internal/xd1000"
)

// This file implements the experiment harness: one Run function per
// table and figure in the paper's evaluation (§5), each returning
// structured results plus a Format function rendering them alongside
// the paper's published numbers. main and the package benchmarks are
// thin wrappers over these.

// Scale controls the synthetic corpus size an experiment runs on. The
// paper's corpus is 52,581 test documents (484 MB); the default scale
// keeps experiments in seconds while preserving every qualitative
// result. Hardware throughput numbers come from the cycle model and are
// scale-independent.
type Scale struct {
	// DocsPerLanguage is the generated document count per language.
	DocsPerLanguage int
	// WordsPerDoc is the mean document length (the paper's corpus
	// averages 1,300 words ≈ 10 KB files).
	WordsPerDoc int
	// TrainFraction is the training split (the paper used 10%).
	TrainFraction float64
	// Seed fixes the corpus and hash matrices.
	Seed int64
}

// DefaultScale returns a scale that runs every experiment in seconds.
func DefaultScale() Scale {
	return Scale{DocsPerLanguage: 150, WordsPerDoc: 400, TrainFraction: 0.10, Seed: 1}
}

// PaperScale returns the full §5 corpus shape (slow: ~450 MB of text).
func PaperScale() Scale {
	return Scale{DocsPerLanguage: 5700, WordsPerDoc: 1300, TrainFraction: 0.10, Seed: 1}
}

func (s Scale) corpusConfig() corpus.Config {
	return corpus.Config{
		DocsPerLanguage: s.DocsPerLanguage,
		WordsPerDoc:     s.WordsPerDoc,
		TrainFraction:   s.TrainFraction,
		Seed:            s.Seed,
	}
}

// ---------------------------------------------------------------------------
// Table 1: classification accuracy vs Bloom filter parameters.

// Table1Configs lists the (m, k) points of Table 1 in paper order.
var Table1Configs = []struct {
	MKbits int
	K      int
}{
	{16, 4}, {16, 3}, {16, 2},
	{8, 4}, {8, 3}, {8, 2},
	{4, 6}, {4, 5},
}

// table1Paper holds the published FP/1000 and average accuracy.
var table1Paper = map[[2]int]struct {
	fpPerMille int
	accuracy   float64
}{
	{16, 4}: {5, 0.9945},
	{16, 3}: {18, 0.9742},
	{16, 2}: {69, 0.9731},
	{8, 4}:  {44, 0.9942},
	{8, 3}:  {95, 0.9722},
	{8, 2}:  {209, 0.9557},
	{4, 6}:  {123, 0.9941},
	{4, 5}:  {174, 0.9644},
}

// Table1Row is one measured row of Table 1.
type Table1Row struct {
	MKbits int
	K      int
	// ModelFPPerMille is the §3.1 closed-form expectation at the actual
	// profile load.
	ModelFPPerMille int
	// MeasuredFPPerMille is the empirical false positive rate of the
	// programmed filters on random non-member n-grams.
	MeasuredFPPerMille float64
	// Accuracy is the measured average classification accuracy.
	Accuracy float64
	// MinAccuracy/MaxAccuracy are per-language extremes (§5.1 reports
	// 99.05%–99.76% for the conservative configuration).
	MinAccuracy, MaxAccuracy float64
	// PaperFPPerMille and PaperAccuracy are the published values.
	PaperFPPerMille int
	PaperAccuracy   float64
}

// RunTable1 trains once and sweeps the eight (m,k) points of Table 1,
// measuring accuracy on the synthetic corpus and the empirical false
// positive rate of the programmed filters.
func RunTable1(scale Scale) ([]Table1Row, error) {
	corp, err := corpus.Generate(scale.corpusConfig())
	if err != nil {
		return nil, err
	}
	base := core.DefaultConfig()
	base.Seed = scale.Seed
	ps, err := bloomlang.Train(base, corp)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, c := range Table1Configs {
		cfg := base
		cfg.K = c.K
		cfg.MBits = uint32(c.MKbits) * 1024
		psC := &core.ProfileSet{Config: cfg, Profiles: ps.Profiles}
		det, err := core.NewDetector(psC, core.WithKernel(bloom.Backend, bloom.NewKernel))
		if err != nil {
			return nil, err
		}
		filters, err := bloom.ParallelFilters(psC)
		if err != nil {
			return nil, err
		}
		ev := bloomlang.Evaluate(det, corp)
		row := Table1Row{
			MKbits:             c.MKbits,
			K:                  c.K,
			MeasuredFPPerMille: measureFalsePositives(filters, psC),
			Accuracy:           ev.Average,
			MinAccuracy:        ev.Min,
			MaxAccuracy:        ev.Max,
			PaperFPPerMille:    table1Paper[[2]int{c.MKbits, c.K}].fpPerMille,
			PaperAccuracy:      table1Paper[[2]int{c.MKbits, c.K}].accuracy,
		}
		// The closed form uses the real profile load (TopT at full
		// scale; smaller when the training split is tiny).
		load := 0
		for _, p := range ps.Profiles {
			load += p.Size()
		}
		load /= len(ps.Profiles)
		row.ModelFPPerMille = bloom.PerThousand(bloom.FalsePositiveRate(load, cfg.MBits, cfg.K))
		rows = append(rows, row)
	}
	return rows, nil
}

// measureFalsePositives probes each language's filter with random
// non-member n-grams and returns the hit rate per thousand.
func measureFalsePositives(filters []*bloom.Parallel, ps *core.ProfileSet) float64 {
	const probesPerLanguage = 20000
	rng := rand.New(rand.NewSource(ps.Config.Seed + 99))
	totalProbes, hits := 0, 0
	for i, p := range ps.Profiles {
		members := p.Set()
		f := filters[i]
		for n := 0; n < probesPerLanguage; {
			g := rng.Uint32() & 0xFFFFF
			if members[g] {
				continue
			}
			n++
			totalProbes++
			if f.Test(g) {
				hits++
			}
		}
	}
	return float64(hits) / float64(totalProbes) * 1000
}

// FormatTable1 renders the rows against the paper's columns.
func FormatTable1(rows []Table1Row) string {
	t := report.NewTable(
		"Table 1: Variation of classification accuracy with Bloom Filter parameters",
		"m (Kbits)", "k", "FP/1000 (paper)", "FP/1000 (model)", "FP/1000 (measured)",
		"Accuracy (paper)", "Accuracy (measured)", "Min..Max",
	)
	for _, r := range rows {
		t.AddRow(
			fmt.Sprint(r.MKbits), fmt.Sprint(r.K),
			fmt.Sprint(r.PaperFPPerMille), fmt.Sprint(r.ModelFPPerMille),
			fmt.Sprintf("%.1f", r.MeasuredFPPerMille),
			report.Percent(r.PaperAccuracy), report.Percent(r.Accuracy),
			fmt.Sprintf("%s..%s", report.Percent(r.MinAccuracy), report.Percent(r.MaxAccuracy)),
		)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Table 2: module resource utilization.

// Table2Row pairs the model's estimate with the published synthesis.
type Table2Row struct {
	MKbits int
	K      int
	Report fpga.ModuleReport
}

// RunTable2 evaluates the resource model at every Table 2 point.
func RunTable2() ([]Table2Row, error) {
	dev := fpga.EP2S180()
	var rows []Table2Row
	for _, c := range Table1Configs {
		rep, err := fpga.EstimateModule(fpga.Table2Config(c.K, uint32(c.MKbits)*1024), dev)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{MKbits: c.MKbits, K: c.K, Report: rep})
	}
	return rows, nil
}

// FormatTable2 renders the module resource table.
func FormatTable2(rows []Table2Row) string {
	t := report.NewTable(
		"Table 2: Resource utilization of the n-gram classifier module (2 languages, 8 n-grams/clock)",
		"m (Kbits)", "k", "Logic", "Registers", "M4Ks", "Frequency", "Source",
	)
	for _, r := range rows {
		src := "model"
		if r.Report.Calibrated {
			src = "paper (calibrated)"
		}
		t.AddRow(
			fmt.Sprint(r.MKbits), fmt.Sprint(r.K),
			fmt.Sprint(r.Report.Logic), fmt.Sprint(r.Report.Registers),
			fmt.Sprint(r.Report.M4Ks), fpga.FormatMHz(r.Report.FreqMHz), src,
		)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Table 3: device utilization of the final builds.

// Table3Row is one device build.
type Table3Row struct {
	MKbits    int
	K         int
	Languages int
	Report    fpga.SystemReport
}

// RunTable3 evaluates the device model for the paper's two builds.
func RunTable3() ([]Table3Row, error) {
	dev := fpga.EP2S180()
	builds := []struct{ mKbits, k, langs int }{
		{16, 4, 10},
		{4, 6, 30},
	}
	var rows []Table3Row
	for _, b := range builds {
		rep, err := fpga.EstimateSystem(fpga.ModuleConfig{
			K: b.k, MBits: uint32(b.mKbits) * 1024, Languages: b.langs, Copies: 4,
		}, dev)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{MKbits: b.mKbits, K: b.k, Languages: b.langs, Report: rep})
	}
	return rows, nil
}

// FormatTable3 renders the device utilization table.
func FormatTable3(rows []Table3Row) string {
	t := report.NewTable(
		"Table 3: Resource utilization of the n-gram classifier hardware (final implementation)",
		"k, m", "Languages", "Logic", "Registers", "M512s", "M4Ks", "M-RAMs", "Frequency", "Fits",
	)
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d, %d Kbits", r.K, r.MKbits),
			fmt.Sprint(r.Languages),
			fmt.Sprint(r.Report.Logic), fmt.Sprint(r.Report.Registers),
			fmt.Sprint(r.Report.M512s), fmt.Sprint(r.Report.M4Ks), fmt.Sprint(r.Report.MRAMs),
			fpga.FormatMHz(r.Report.FreqMHz),
			fmt.Sprint(r.Report.Fits),
		)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Figure 4: system throughput, synchronous vs asynchronous.

// Figure4Point is one bar pair of Figure 4.
type Figure4Point struct {
	// Label is the language code, or "All" for the combined corpus.
	Label string
	// SyncMBps and AsyncMBps are decimal MB/sec, the paper's unit.
	SyncMBps  float64
	AsyncMBps float64
}

// Figure4Result is the full figure plus the §5.4 side numbers.
type Figure4Result struct {
	Points []Figure4Point
	// AsyncWithProgrammingMBps is the "All" async throughput including
	// Bloom filter programming time at the streamed volume. Programming
	// is a fixed cost, so this number depends on how much data is
	// streamed; see PaperVolumeWithProgrammingMBps for the §5.4
	// comparison point.
	AsyncWithProgrammingMBps float64
	// PaperVolumeWithProgrammingMBps projects the amortization at the
	// paper's 484 MB corpus with full 5,000-n-gram profiles — the
	// number to compare against the published 378 MB/s.
	PaperVolumeWithProgrammingMBps float64
	// ProgramSeconds is the simulated preprocessing cost at this scale.
	ProgramSeconds float64
	// Accuracy is the classification accuracy over the combined run.
	Accuracy float64
}

// Figure4Scale returns the scale used for throughput runs: paper-sized
// documents (≈10 KB) so per-document overheads weigh as they did in §5.4.
func Figure4Scale() Scale {
	return Scale{DocsPerLanguage: 60, WordsPerDoc: 1300, TrainFraction: 0.10, Seed: 1}
}

// RunFigure4 streams each language's test documents — and the combined
// interleaved set — through the simulated system in both driver modes.
func RunFigure4(scale Scale) (Figure4Result, error) {
	var out Figure4Result
	corp, err := corpus.Generate(scale.corpusConfig())
	if err != nil {
		return out, err
	}
	base := core.DefaultConfig()
	base.Seed = scale.Seed
	ps, err := bloomlang.Train(base, corp)
	if err != nil {
		return out, err
	}
	labels := append([]string{""}, corp.Languages...)
	for _, lang := range labels {
		docs := corp.TestDocuments(lang)
		sync, err := streamFresh(ps, docs, xd1000.ModeSync)
		if err != nil {
			return out, err
		}
		async, err := streamFresh(ps, docs, xd1000.ModeAsync)
		if err != nil {
			return out, err
		}
		label := lang
		if label == "" {
			label = "All"
		}
		out.Points = append(out.Points, Figure4Point{
			Label:     label,
			SyncMBps:  decimalMBps(sync.Bytes, sync.SimTime.Seconds()),
			AsyncMBps: decimalMBps(async.Bytes, async.SimTime.Seconds()),
		})
		if lang == "" {
			out.AsyncWithProgrammingMBps = decimalMBps(async.Bytes, (async.SimTime + async.ProgramTime).Seconds())
			out.ProgramSeconds = async.ProgramTime.Seconds()
			out.Accuracy = async.Accuracy()
			// Paper-volume projection: 484 MB streamed at the measured
			// async rate plus programming ten full 5,000-n-gram profiles
			// (3 PIO writes per n-gram).
			asyncRate := float64(async.Bytes) / async.SimTime.Seconds()
			const paperBytes = 484e6
			fullProgram := float64(10*5000*3) * ht.XD1000Config().PIOWriteLatency.Seconds()
			out.PaperVolumeWithProgrammingMBps = decimalMBps(int64(paperBytes), paperBytes/asyncRate+fullProgram)
		}
	}
	return out, nil
}

func streamFresh(ps *core.ProfileSet, docs []corpus.Document, mode xd1000.Mode) (xd1000.RunReport, error) {
	sys, err := xd1000.New(ps, xd1000.Options{})
	if err != nil {
		return xd1000.RunReport{}, err
	}
	sys.Program()
	return sys.Stream(docs, mode, false)
}

func decimalMBps(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / seconds / 1e6
}

// FormatFigure4 renders the throughput chart.
func FormatFigure4(r Figure4Result) string {
	c := report.NewBarChart("Figure 4: Throughput of the n-gram classifier hardware (paper: async 470, sync 228 MB/sec)", "MB/sec", 50)
	for _, p := range r.Points {
		c.Add(p.Label+" sync", p.SyncMBps)
		c.Add(p.Label+" async", p.AsyncMBps)
	}
	s := c.String()
	s += fmt.Sprintf("Async including Bloom programming at streamed volume (%.2fs program): %.0f MB/sec\n",
		r.ProgramSeconds, r.AsyncWithProgrammingMBps)
	s += fmt.Sprintf("Async including programming at paper volume (484 MB, full profiles): %.0f MB/sec (paper: 378)\n",
		r.PaperVolumeWithProgrammingMBps)
	s += fmt.Sprintf("Hardware-path classification accuracy: %s\n", report.Percent(r.Accuracy))
	return s
}

// ---------------------------------------------------------------------------
// Table 4: comparison of n-gram based language classifiers.

// Table4Result compares the three systems of Table 4 plus the §5.5
// projections.
type Table4Result struct {
	// MguesserMBps is the measured wall-clock throughput of the
	// Cavnar-Trenkle software baseline on this host (decimal MB/s).
	MguesserMBps float64
	// HAILMBps is the modelled HAIL throughput.
	HAILMBps float64
	// BloomMBps is the simulated XD1000 asynchronous throughput.
	BloomMBps float64
	// PeakMBps is the datapath's theoretical rate (§5.4's 1.4 GB/s).
	PeakMBps float64
	// SpeedupVsSoftware is BloomMBps / MguesserMBps (paper: 85x).
	SpeedupVsSoftware float64
	// SpeedupVsHAIL is BloomMBps / HAILMBps (paper: 1.45x).
	SpeedupVsHAIL float64
	// PeakSpeedupVsSoftware and PeakSpeedupVsHAIL are the §5.5
	// projections at the theoretical peak (paper: 260x and 4.4x).
	PeakSpeedupVsSoftware, PeakSpeedupVsHAIL float64
	// Accuracies, for context.
	MguesserAccuracy, HAILAccuracy, BloomAccuracy float64
}

// RunTable4 measures the software baseline for real and runs both
// hardware models over the same corpus.
func RunTable4(scale Scale) (Table4Result, error) {
	var out Table4Result
	corp, err := corpus.Generate(scale.corpusConfig())
	if err != nil {
		return out, err
	}
	docs := corp.TestDocuments("")

	// Mguesser-style software baseline: measured, single-threaded, docs
	// cached in memory (§5.5's methodology).
	ct, err := ctrank.TrainCorpus(ctrank.DefaultConfig(), corp)
	if err != nil {
		return out, err
	}
	ctRep := ct.Measure(docs)
	out.MguesserMBps = decimalMBps(ctRep.Bytes, ctRep.Elapsed.Seconds())
	out.MguesserAccuracy = ctRep.Accuracy()

	// Bloom filter profiles shared by HAIL and the XD1000 sim.
	base := core.DefaultConfig()
	base.Seed = scale.Seed
	ps, err := bloomlang.Train(base, corp)
	if err != nil {
		return out, err
	}

	hc, err := hail.Build(hail.DefaultConfig(), ps.Profiles)
	if err != nil {
		return out, err
	}
	hRep := hc.Stream(docs)
	out.HAILMBps = decimalMBps(hRep.Bytes, hRep.SimTime.Seconds())
	out.HAILAccuracy = hRep.Accuracy()

	bRep, err := streamFresh(ps, docs, xd1000.ModeAsync)
	if err != nil {
		return out, err
	}
	out.BloomMBps = decimalMBps(bRep.Bytes, bRep.SimTime.Seconds())
	out.BloomAccuracy = bRep.Accuracy()

	sys, err := xd1000.New(ps, xd1000.Options{})
	if err != nil {
		return out, err
	}
	out.PeakMBps = sys.PeakMBPerSec() * (1 << 20) / 1e6

	if out.MguesserMBps > 0 {
		out.SpeedupVsSoftware = out.BloomMBps / out.MguesserMBps
		out.PeakSpeedupVsSoftware = out.PeakMBps / out.MguesserMBps
	}
	if out.HAILMBps > 0 {
		out.SpeedupVsHAIL = out.BloomMBps / out.HAILMBps
		out.PeakSpeedupVsHAIL = out.PeakMBps / out.HAILMBps
	}
	return out, nil
}

// FormatTable4 renders the system comparison.
func FormatTable4(r Table4Result) string {
	t := report.NewTable(
		"Table 4: Comparison of n-gram based language classifiers",
		"System", "Type", "Throughput (MB/sec)", "Paper", "Accuracy",
	)
	t.AddRow("Mguesser (Cavnar-Trenkle)", "AMD Opteron workstation (measured)",
		fmt.Sprintf("%.1f", r.MguesserMBps), "5.5", report.Percent(r.MguesserAccuracy))
	t.AddRow("HAIL", "Xilinx XCV2000E-8 FPGA (model)",
		fmt.Sprintf("%.0f", r.HAILMBps), "324", report.Percent(r.HAILAccuracy))
	t.AddRow("BloomFilter", "Altera EP2S180 FPGA (simulated)",
		fmt.Sprintf("%.0f", r.BloomMBps), "470", report.Percent(r.BloomAccuracy))
	s := t.String()
	s += fmt.Sprintf("Speedup vs software: %.0fx (paper: 85x)   vs HAIL: %.2fx (paper: 1.45x)\n",
		r.SpeedupVsSoftware, r.SpeedupVsHAIL)
	s += fmt.Sprintf("Theoretical peak %.0f MB/sec: %.0fx software (paper: 260x), %.1fx HAIL (paper: 4.4x)\n",
		r.PeakMBps, r.PeakSpeedupVsSoftware, r.PeakSpeedupVsHAIL)
	return s
}

// ---------------------------------------------------------------------------
// §5.2 ablation: input subsampling.

// SubsampleRow is one row of the subsampling ablation: §5.2 notes that
// testing only every other n-gram "doubles the number of supported
// languages while maintaining satisfactory accuracy".
type SubsampleRow struct {
	// Subsample is the 1-in-s sampling factor.
	Subsample int
	// Accuracy is the measured average accuracy.
	Accuracy float64
	// MaxLanguages is the EP2S180 language capacity at this input rate
	// (sampling 1-in-2 halves the classifier copies needed).
	MaxLanguages int
}

// RunSubsampleAblation measures accuracy at full rate and at 1-in-2 and
// 1-in-4 subsampling with the conservative filter configuration,
// streaming the test split through the XD1000 model, which tests every
// cfg.Subsample-th n-gram.
func RunSubsampleAblation(scale Scale) ([]SubsampleRow, error) {
	corp, err := corpus.Generate(scale.corpusConfig())
	if err != nil {
		return nil, err
	}
	base := core.DefaultConfig()
	base.Seed = scale.Seed
	ps, err := bloomlang.Train(base, corp)
	if err != nil {
		return nil, err
	}
	docs := corp.TestDocuments("")
	dev := fpga.EP2S180()
	var rows []SubsampleRow
	for _, sub := range []int{1, 2, 4} {
		cfg := base
		cfg.Subsample = sub
		rep, err := streamFresh(&core.ProfileSet{Config: cfg, Profiles: ps.Profiles}, docs, xd1000.ModeAsync)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SubsampleRow{
			Subsample:    sub,
			Accuracy:     rep.Accuracy(),
			MaxLanguages: fpga.MaxLanguages(cfg.K, cfg.MBits, max(4/sub, 1), dev),
		})
	}
	return rows, nil
}

// FormatSubsampleAblation renders the ablation.
func FormatSubsampleAblation(rows []SubsampleRow) string {
	t := report.NewTable(
		"Subsampling ablation (k=4, m=16 Kbits): languages supported vs accuracy (§5.2)",
		"Subsample", "Accuracy", "Max languages",
	)
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("1 in %d", r.Subsample), report.Percent(r.Accuracy), fmt.Sprint(r.MaxLanguages))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// §5.1/§5.2 narrative: confusion structure.

// ConfusionResult captures the §5.2 observation that related languages
// confuse: "consistently more Spanish documents were misclassified as
// Portuguese, and Estonian documents as Finnish".
type ConfusionResult struct {
	Evaluation bloomlang.Evaluation
	// TopPairs lists (truth, predicted, count) misclassifications in
	// descending count order.
	TopPairs []ConfusionPair
}

// ConfusionPair is one off-diagonal confusion cell.
type ConfusionPair struct {
	Truth, Predicted string
	Count            int
}

// RunConfusion evaluates the conservative configuration and extracts
// the confusion structure.
func RunConfusion(scale Scale) (ConfusionResult, error) {
	var out ConfusionResult
	corp, err := corpus.Generate(scale.corpusConfig())
	if err != nil {
		return out, err
	}
	base := core.DefaultConfig()
	base.Seed = scale.Seed
	ps, err := bloomlang.Train(base, corp)
	if err != nil {
		return out, err
	}
	det, err := core.NewDetector(ps, core.WithKernel(bloom.Backend, bloom.NewKernel))
	if err != nil {
		return out, err
	}
	out.Evaluation = bloomlang.Evaluate(det, corp)
	for truth, row := range out.Evaluation.Confusion {
		for pred, n := range row {
			if pred != truth && pred != "" && n > 0 {
				out.TopPairs = append(out.TopPairs, ConfusionPair{Truth: truth, Predicted: pred, Count: n})
			}
		}
	}
	// Descending count, deterministic tie-break.
	for i := range out.TopPairs {
		for j := i + 1; j < len(out.TopPairs); j++ {
			a, b := out.TopPairs[i], out.TopPairs[j]
			if b.Count > a.Count || (b.Count == a.Count && b.Truth+b.Predicted < a.Truth+a.Predicted) {
				out.TopPairs[i], out.TopPairs[j] = b, a
			}
		}
	}
	return out, nil
}

// FormatConfusion renders the confusion summary.
func FormatConfusion(r ConfusionResult) string {
	t := report.NewTable(
		"Confusion structure (conservative configuration, k=4, m=16 Kbits)",
		"Truth", "Predicted", "Count",
	)
	limit := len(r.TopPairs)
	if limit > 8 {
		limit = 8
	}
	for _, p := range r.TopPairs[:limit] {
		t.AddRow(core.LanguageName(p.Truth), core.LanguageName(p.Predicted), fmt.Sprint(p.Count))
	}
	s := t.String()
	s += fmt.Sprintf("Average accuracy %s (min %s, max %s) over %d documents\n",
		report.Percent(r.Evaluation.Average), report.Percent(r.Evaluation.Min),
		report.Percent(r.Evaluation.Max), r.Evaluation.Docs)
	return s
}
