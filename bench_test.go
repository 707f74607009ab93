package bloomlang

import (
	"sync"
	"testing"
)

// Benchmarks regenerating the paper's evaluation, one per table and
// figure, plus micro-benchmarks of the pipeline stages. Accuracy and
// modelled-throughput results are attached as custom metrics so
// `go test -bench` output carries the reproduction numbers:
//
//	go test -bench 'Table|Figure' -benchmem
//
// The per-op timings measure how fast this implementation regenerates
// each experiment; the custom metrics (accuracy_pct, sim_MB_per_s, ...)
// are the reproduced results themselves.

var (
	benchOnce     sync.Once
	benchCorpus   *Corpus
	benchProfiles *ProfileSet
	benchBigDocs  []Document // paper-sized documents for throughput runs
)

func benchFixtures(b *testing.B) (*Corpus, *ProfileSet) {
	b.Helper()
	benchOnce.Do(func() {
		corp, err := GenerateCorpus(CorpusConfig{
			DocsPerLanguage: 60,
			WordsPerDoc:     300,
			TrainFraction:   0.2,
			Seed:            17,
		})
		if err != nil {
			b.Fatal(err)
		}
		ps, err := Train(DefaultConfig(), corp)
		if err != nil {
			b.Fatal(err)
		}
		big, err := GenerateCorpus(CorpusConfig{
			DocsPerLanguage: 20,
			WordsPerDoc:     1300,
			TrainFraction:   0.2,
			Seed:            17,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchCorpus, benchProfiles = corp, ps
		benchBigDocs = big.TestDocuments("")
	})
	return benchCorpus, benchProfiles
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
			psC := &ProfileSet{Config: cfg, Profiles: ps.Profiles}
			det, err := NewDetector(psC, WithBackend(BackendBloom))
			if err != nil {
				b.Fatal(err)
			}
			docs := corp.TestDocuments("")
			texts := DocumentTexts(docs)
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
			ev := Evaluate(det, corp)
			b.ReportMetric(100*ev.Average, "accuracy_pct")
			b.ReportMetric(1000*cfg.ExpectedFalsePositiveRate(), "expected_fp_per_1000")
		})
	}
}

func benchName(mKbits, k int) string {
	return "m" + itoa(mKbits) + "K_k" + itoa(k)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
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
	for _, mode := range []DriverMode{ModeSync, ModeAsync} {
		b.Run(mode.String(), func(b *testing.B) {
			var mbps float64
			var bytes int64
			for _, d := range benchBigDocs {
				bytes += int64(len(d.Text))
			}
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(ps, SystemOptions{})
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
		ct, err := NewCavnarTrenkle(CavnarTrenkleConfig{}, corp)
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
		h, err := NewHAIL(DefaultHAILConfig(), ps)
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
			sys, err := NewSystem(ps, SystemOptions{})
			if err != nil {
				b.Fatal(err)
			}
			sys.Program()
			rep, err := sys.Stream(benchBigDocs, ModeAsync, false)
			if err != nil {
				b.Fatal(err)
			}
			mbps = float64(rep.Bytes) / rep.SimTime.Seconds() / 1e6
		}
		b.ReportMetric(mbps, "MB_per_s")
	})
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §5).

// BenchmarkAblationBackends compares the four membership backends on
// identical work: the paper's parallel Bloom filter, exact direct
// lookup, a classic single-vector Bloom filter of the same total bit
// budget, and the fused cache-line-blocked filter sized for the same
// modelled false-positive rate.
func BenchmarkAblationBackends(b *testing.B) {
	corp, ps := benchFixtures(b)
	docs := corp.TestDocuments("")[:100]
	texts := DocumentTexts(docs)
	var bytes int64
	for _, d := range docs {
		bytes += int64(len(d.Text))
	}
	for _, backend := range []Backend{BackendBloom, BackendDirect, BackendClassic, BackendBlocked} {
		b.Run(backend.String(), func(b *testing.B) {
			det, err := NewDetector(ps, WithBackend(backend))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.DetectBatch(texts)
			}
		})
	}
}

// BenchmarkAblationWorkers measures software engine scaling with worker
// count — the document-level parallelism knob.
func BenchmarkAblationWorkers(b *testing.B) {
	corp, ps := benchFixtures(b)
	docs := corp.TestDocuments("")
	texts := DocumentTexts(docs)
	var bytes int64
	for _, d := range docs {
		bytes += int64(len(d.Text))
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run("workers_"+itoa(workers), func(b *testing.B) {
			det, err := NewDetector(ps, WithBackend(BackendBloom), WithWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(bytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.DetectBatch(texts)
			}
		})
	}
}

// BenchmarkAblationSubsample compares full-rate extraction with the
// 1-in-2 subsampling HAIL uses (§3.3, §5.2): half the lookups for a
// modest accuracy cost.
func BenchmarkAblationSubsample(b *testing.B) {
	corp, ps := benchFixtures(b)
	for _, sub := range []int{1, 2} {
		b.Run("subsample_"+itoa(sub), func(b *testing.B) {
			cfg := ps.Config
			cfg.Subsample = sub
			psC := &ProfileSet{Config: cfg, Profiles: ps.Profiles}
			det, err := NewDetector(psC, WithBackend(BackendBloom))
			if err != nil {
				b.Fatal(err)
			}
			docs := corp.TestDocuments("")
			texts := DocumentTexts(docs)
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
			ev := Evaluate(det, corp)
			b.ReportMetric(100*ev.Average, "accuracy_pct")
		})
	}
}

// BenchmarkAblationCopies sweeps the classifier replication factor in
// the simulated hardware: copies ∈ {1,2,4} give 2, 4, 8 n-grams/clock.
func BenchmarkAblationCopies(b *testing.B) {
	_, ps := benchFixtures(b)
	for _, copies := range []int{1, 2, 4} {
		b.Run("copies_"+itoa(copies), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(ps, SystemOptions{Copies: copies, Link: ImprovedLink()})
				if err != nil {
					b.Fatal(err)
				}
				sys.Program()
				rep, err := sys.Stream(benchBigDocs, ModeAsync, false)
				if err != nil {
					b.Fatal(err)
				}
				mbps = float64(rep.Bytes) / rep.SimTime.Seconds() / 1e6
			}
			b.ReportMetric(mbps, "sim_MB_per_s")
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the pipeline stages.

func BenchmarkTrainProfiles(b *testing.B) {
	corp, _ := benchFixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(DefaultConfig(), corp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassifySingleDoc(b *testing.B) {
	_, ps := benchFixtures(b)
	det, err := NewDetector(ps, WithBackend(BackendBloom))
	if err != nil {
		b.Fatal(err)
	}
	clf := det.Classifier()
	doc := benchBigDocs[0].Text
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.Classify(doc)
	}
}

func BenchmarkCavnarTrenkleSingleDoc(b *testing.B) {
	corp, _ := benchFixtures(b)
	ct, err := NewCavnarTrenkle(CavnarTrenkleConfig{}, corp)
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
	h, err := NewHAIL(DefaultHAILConfig(), ps)
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
