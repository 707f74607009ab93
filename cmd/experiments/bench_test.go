package main

import (
	"strconv"
	"sync"
	"testing"

	"bloomlang"
	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ctrank"
	"bloomlang/internal/hail"
	"bloomlang/internal/ht"
	"bloomlang/internal/xd1000"
)

// Benchmarks regenerating the paper's evaluation, one per table and
// figure, plus the hardware-model and baseline single-document costs.
// Accuracy and modelled-throughput results are attached as custom
// metrics so `go test -bench` output carries the reproduction numbers:
//
//	go test -bench 'Table|Figure' -benchmem ./cmd/experiments
//
// The per-op timings measure how fast this implementation regenerates
// each experiment; the custom metrics (accuracy_pct, sim_MB_per_s, ...)
// are the reproduced results themselves.

var (
	benchOnce    sync.Once
	benchBigDocs []corpus.Document // paper-sized documents for throughput runs
)

// benchFixtures returns the shared test corpus and profiles, plus
// paper-sized (1,300-word) documents in benchBigDocs.
func benchFixtures(b *testing.B) (*corpus.Corpus, *core.ProfileSet) {
	b.Helper()
	corp, ps := fixtures(b)
	benchOnce.Do(func() {
		big, err := corpus.Generate(corpus.Config{
			DocsPerLanguage: 20,
			WordsPerDoc:     1300,
			TrainFraction:   0.2,
			Seed:            17,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchBigDocs = big.TestDocuments("")
	})
	return corp, ps
}

// BenchmarkTable1AccuracyVsParams regenerates Table 1: classification
// accuracy at each (m, k) Bloom filter configuration. Each sub-benchmark
// measures software classification throughput at that configuration and
// reports the measured accuracy and false positive rate.
func BenchmarkTable1AccuracyVsParams(b *testing.B) {
	corp, ps := benchFixtures(b)
	for _, cfgPoint := range Table1Configs {
		name := benchName(cfgPoint.MKbits, cfgPoint.K)
		b.Run(name, func(b *testing.B) {
			cfg := ps.Config
			cfg.K = cfgPoint.K
			cfg.MBits = uint32(cfgPoint.MKbits) * 1024
			psC := &core.ProfileSet{Config: cfg, Profiles: ps.Profiles}
			det, err := core.NewDetector(psC, core.WithKernel(bloom.Backend, bloom.NewKernel))
			if err != nil {
				b.Fatal(err)
			}
			docs := corp.TestDocuments("")
			texts := corpus.Texts(docs)
			var bytes int64
			for _, d := range docs {
				bytes += int64(len(d.Text))
			}
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.DetectBatch(texts)
			}
			b.StopTimer()
			ev := bloomlang.Evaluate(det, corp)
			b.ReportMetric(100*ev.Average, "accuracy_pct")
			b.ReportMetric(1000*bloom.ExpectedFalsePositiveRate(cfg), "expected_fp_per_1000")
		})
	}
}
func benchName(mKbits, k int) string {
	return "m" + strconv.Itoa(mKbits) + "K_k" + strconv.Itoa(k)
}

// BenchmarkTable2ResourceModel regenerates Table 2: the module resource
// model at all eight published points.
func BenchmarkTable2ResourceModel(b *testing.B) {
	var rows []Table2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = RunTable2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Report.Logic), "m16k4_logic_ALUTs")
	b.ReportMetric(float64(rows[0].Report.M4Ks), "m16k4_M4Ks")
	b.ReportMetric(rows[0].Report.FreqMHz, "m16k4_MHz")
}

// BenchmarkTable3DeviceModel regenerates Table 3: the two full-device
// builds.
func BenchmarkTable3DeviceModel(b *testing.B) {
	var rows []Table3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = RunTable3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Report.M4Ks), "langs10_M4Ks")
	b.ReportMetric(float64(rows[1].Report.M4Ks), "langs30_M4Ks")
	b.ReportMetric(rows[1].Report.FreqMHz, "langs30_MHz")
}

// BenchmarkFigure4Throughput regenerates Figure 4: streaming the
// combined corpus through the simulated XD1000 with each host driver.
// The reported sim_MB_per_s metric is the modelled system throughput
// (paper: 470 async, 228 sync); ns/op measures simulator speed.
func BenchmarkFigure4Throughput(b *testing.B) {
	_, ps := benchFixtures(b)
	for _, mode := range []xd1000.Mode{xd1000.ModeSync, xd1000.ModeAsync} {
		b.Run(mode.String(), func(b *testing.B) {
			var mbps float64
			var bytes int64
			for _, d := range benchBigDocs {
				bytes += int64(len(d.Text))
			}
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				sys, err := xd1000.New(ps, xd1000.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sys.Program()
				rep, err := sys.Stream(benchBigDocs, mode, false)
				if err != nil {
					b.Fatal(err)
				}
				mbps = float64(rep.Bytes) / rep.SimTime.Seconds() / 1e6
			}
			b.ReportMetric(mbps, "sim_MB_per_s")
		})
	}
}

// BenchmarkTable4SystemComparison regenerates Table 4: the software
// baseline measured for real, and both hardware models. The metric
// MB_per_s carries each system's (measured or modelled) throughput.
func BenchmarkTable4SystemComparison(b *testing.B) {
	corp, ps := benchFixtures(b)

	b.Run("mguesser_software", func(b *testing.B) {
		ct, err := ctrank.TrainCorpus(ctrank.Config{}, corp)
		if err != nil {
			b.Fatal(err)
		}
		var bytes int64
		for _, d := range benchBigDocs {
			bytes += int64(len(d.Text))
		}
		b.SetBytes(bytes)
		b.ResetTimer()
		var rep = ct.Measure(benchBigDocs)
		for i := 1; i < b.N; i++ {
			rep = ct.Measure(benchBigDocs)
		}
		b.ReportMetric(float64(rep.Bytes)/rep.Elapsed.Seconds()/1e6, "MB_per_s")
	})

	b.Run("hail_fpga_model", func(b *testing.B) {
		h, err := hail.Build(hail.DefaultConfig(), ps.Profiles)
		if err != nil {
			b.Fatal(err)
		}
		var mbps float64
		for i := 0; i < b.N; i++ {
			rep := h.Stream(benchBigDocs)
			mbps = float64(rep.Bytes) / rep.SimTime.Seconds() / 1e6
		}
		b.ReportMetric(mbps, "MB_per_s")
	})

	b.Run("bloom_fpga_sim", func(b *testing.B) {
		var mbps float64
		for i := 0; i < b.N; i++ {
			sys, err := xd1000.New(ps, xd1000.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sys.Program()
			rep, err := sys.Stream(benchBigDocs, xd1000.ModeAsync, false)
			if err != nil {
				b.Fatal(err)
			}
			mbps = float64(rep.Bytes) / rep.SimTime.Seconds() / 1e6
		}
		b.ReportMetric(mbps, "MB_per_s")
	})
}

// BenchmarkAblationCopies sweeps the classifier replication factor in
// the simulated hardware: copies ∈ {1,2,4} give 2, 4, 8 n-grams/clock.
func BenchmarkAblationCopies(b *testing.B) {
	_, ps := benchFixtures(b)
	for _, copies := range []int{1, 2, 4} {
		b.Run("copies_"+strconv.Itoa(copies), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				sys, err := xd1000.New(ps, xd1000.Options{Copies: copies, Link: ht.ImprovedConfig()})
				if err != nil {
					b.Fatal(err)
				}
				sys.Program()
				rep, err := sys.Stream(benchBigDocs, xd1000.ModeAsync, false)
				if err != nil {
					b.Fatal(err)
				}
				mbps = float64(rep.Bytes) / rep.SimTime.Seconds() / 1e6
			}
			b.ReportMetric(mbps, "sim_MB_per_s")
		})
	}
}
func BenchmarkCavnarTrenkleSingleDoc(b *testing.B) {
	corp, _ := benchFixtures(b)
	ct, err := ctrank.TrainCorpus(ctrank.Config{}, corp)
	if err != nil {
		b.Fatal(err)
	}
	doc := benchBigDocs[0].Text
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.Classify(doc)
	}
}
func BenchmarkHAILSingleDoc(b *testing.B) {
	_, ps := benchFixtures(b)
	h, err := hail.Build(hail.DefaultConfig(), ps.Profiles)
	if err != nil {
		b.Fatal(err)
	}
	doc := benchBigDocs[0].Text
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Classify(doc)
	}
}
