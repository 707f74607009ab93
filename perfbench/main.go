// Command perfbench is the repository's serving benchmark. It
// generates a workload from a seed, trains and serves it through the
// real stack (internal/train → internal/registry →
// serve.NewFromRegistry → Server.HTTPServer on loopback, all at the
// daemon's defaults), drives it with a closed loop of one connection
// per CPU, checks every answer, and prints every metric with its unit
// and sample count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Every timing is normalised by a machine-speed probe (package probe)
// that runs in short slices between load slices, so figures repeat on
// a shared host whose speed drifts. Raw values are printed beside the
// normalised ones.
//
// Run from the repository root with perfbench/run.sh, which builds this
// command into .bench_build:
//
//	bash perfbench/run.sh --workload long-docs --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced
// then a traced half and prints the per-layer metrics, with spans
// written to .bench_build/perfbench/trace-<workload>.tsv.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"bloomlang/internal/core"
	"bloomlang/perfbench/probe"
)

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	sizes    sizes
	setups   int
	warmup   time.Duration
}

// A traced run replays one request in replayEvery through the layers,
// and keeps at most spanLimit spans in memory.
const (
	replayEvery = 2
	spanLimit   = 4 << 20
)

// maxInterferencePct is the share of process CPU outside the probe,
// during probe slices, above which a run is flagged and not reported:
// background work in the program would otherwise slow the probe and
// make the program look faster.
const maxInterferencePct = 10

func main() {
	cfg := config{sizes: defaultSizes, setups: 5, warmup: 2 * time.Second}
	trace := 0
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.StringVar(&cfg.dir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for registries and trace output")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one printed figure. raw, when set, is the value before
// probe normalisation.
type metric struct {
	name    string
	unit    string
	value   float64
	raw     float64
	hasRaw  bool
	samples int
}

// report is a finished run.
type report struct {
	stamp     []string
	notes     []string
	metrics   []metric
	attempted int
	failed    int
}

func (r *report) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, samples: samples})
}

func (r *report) addNorm(name, unit string, value, raw float64, samples int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, raw: raw, hasRaw: true, samples: samples})
}

func (r *report) stampf(format string, args ...any) {
	r.stamp = append(r.stamp, fmt.Sprintf(format, args...))
}
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print(f *os.File) {
	fmt.Fprintln(f, "# stamp:", strings.Join(r.stamp, " "))
	for _, n := range r.notes {
		fmt.Fprintln(f, "# note:", n)
	}
	fmt.Fprintf(f, "%-32s %16s %-7s %16s %9s\n", "metric", "value", "unit", "raw", "samples")
	out := map[string]any{}
	for _, m := range r.metrics {
		raw := "-"
		if m.hasRaw {
			raw = fmt.Sprintf("%.6g", m.raw)
		}
		fmt.Fprintf(f, "%-32s %16.6g %-7s %16s %9d\n", m.name, m.value, m.unit, raw, m.samples)
		out[m.name] = map[string]any{"value": finite(m.value), "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Fprintln(f, string(line))
}

// finite keeps a value JSON can carry; an undefined figure prints -1.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// run executes one benchmark run.
func run(cfg config) (*report, error) {
	nproc := runtime.NumCPU()
	rep := &report{}
	rep.stampf("workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, nproc, runtime.GOMAXPROCS(0), runtime.Version())
	w, err := generate(cfg.workload, cfg.seed, cfg.sizes)
	if err != nil {
		return nil, err
	}
	pr := probe.New()
	if _, err := pr.Run(nproc, probeSlice); err != nil { // warm caches and threads
		return nil, err
	}
	transport := &http.Transport{MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	var tr *tracer
	var wrap func(http.Handler) http.Handler
	if cfg.trace {
		tr = newTracer(spanLimit)
		wrap = tr.wrap
	}

	// Set up several times; every stack but the last is closed again.
	var st *stack
	var setupNorm, setupRaw, trainS, trainRate, createMS, loadMS, newMS []float64
	before, err := pr.Run(nproc, probeSlice)
	if err != nil {
		return nil, err
	}
	var peaks []float64
	for i := 0; i < cfg.setups; i++ {
		// Each set-up starts alone on a collected and scavenged heap, as
		// a daemon's one set-up does, with the peak-RSS mark reset.
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			st = nil
		}
		debug.FreeOSMemory()
		resetPeakRSS()
		s, err := startStack(filepath.Join(cfg.dir, fmt.Sprintf("registry-%d", i)), w, wrap, client)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st = s
		peaks = append(peaks, peakRSSMB())
		after, err := pr.Run(nproc, probeSlice)
		if err != nil {
			st.close()
			return nil, err
		}
		p := (speed(before) + speed(after)) / 2
		before = after
		setupRaw = append(setupRaw, s.times.total.Seconds())
		setupNorm = append(setupNorm, normDuration(s.times.total.Seconds(), p))
		trainS = append(trainS, normDuration(s.times.train.Seconds(), p))
		trainRate = append(trainRate, normRate(float64(s.times.trainBytes)/1e6/s.times.train.Seconds(), p))
		createMS = append(createMS, normDuration(float64(s.times.create)/1e6, p))
		if cfg.trace {
			load, build, err := s.loadTimes()
			if err != nil {
				st.close()
				return nil, err
			}
			loadMS = append(loadMS, normDuration(float64(load)/1e6, p))
			newMS = append(newMS, normDuration(float64(build)/1e6, p))
		}
	}
	defer st.close()
	rep.stampf("backend=%s profile_version=%s", st.backend, st.version)

	l := newLoader(w, client, nproc)
	l.st = st
	warm := l.runSlice(cfg.warmup, false)
	rep.attempted, rep.failed = warm.reqs, warm.failed
	rep.stampf("warmup_requests_excluded=%d", warm.reqs)

	steal0 := readCPUStat()
	measure := time.Duration(cfg.seconds * float64(time.Second))
	var phases []*phase
	var ms0, ms1 runtime.MemStats
	if cfg.trace {
		measure /= 2
	}
	runtime.ReadMemStats(&ms0)
	untraced, err := l.runPhase(pr, nproc, measure, false)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	phases = append(phases, untraced)
	var traced *phase
	if cfg.trace {
		ref, err := referenceClassifier(st)
		if err != nil {
			return nil, err
		}
		if l.rp, err = newReplayer(tr, st.srv.Detector(), ref); err != nil {
			return nil, err
		}
		l.tr = tr
		tr.on.Store(true)
		traced, err = l.runPhase(pr, nproc, measure, true)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		phases = append(phases, traced)
	}
	steal := stealPct(steal0, readCPUStat())

	var probeRates []float64
	var proc, own time.Duration
	for _, ph := range phases {
		t := ph.total()
		rep.attempted += t.reqs
		rep.failed += t.failed
		for _, s := range ph.probes {
			probeRates = append(probeRates, s.Rate())
			proc += s.ProcCPU
			own += s.ProbeCPU
		}
	}
	interference := 0.0
	if proc > 0 {
		interference = 100 * float64(max(proc-own, 0)) / float64(proc)
	}
	probeRaw := median(probeRates)
	rep.stampf("probe_ops_per_s_raw=%.4g probe_interference_pct=%.2f host_steal_pct=%.2f", probeRaw, interference, steal)
	for _, e := range l.errs {
		rep.notef("failure: %s", e)
	}
	if interference > maxInterferencePct {
		return nil, fmt.Errorf("flagged: %.1f%% of process CPU during probe slices was outside the probe (bound %d%%); run not reported",
			interference, maxInterferencePct)
	}

	if !cfg.trace {
		// The last set-up's peak runs on through the load.
		peaks[len(peaks)-1] = peakRSSMB()
		endToEnd(rep, untraced, l, setupNorm, setupRaw, peaks)
		return rep, nil
	}
	lay := layerInputs{
		untraced: untraced, traced: traced, tr: tr, l: l, w: w, st: st,
		trainS: trainS, trainRate: trainRate, createMS: createMS, loadMS: loadMS, newMS: newMS,
		gcCycles: ms1.NumGC - ms0.NumGC, gcPauseNS: ms1.PauseTotalNs - ms0.PauseTotalNs,
		probeRaw: probeRaw, interference: interference, steal: steal,
	}
	perLayer(rep, &lay)
	path := filepath.Join(cfg.dir, "trace-"+cfg.workload+".tsv")
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.notef("%d spans written to %s", len(tr.spans), path)
	return rep, nil
}

// referenceClassifier builds the exact direct-lookup classifier the
// traced run measures Bloom false positives against. It is built for
// measurement only and never serves.
func referenceClassifier(st *stack) (*core.Classifier, error) {
	ps, _, err := st.reg.LoadActive()
	if err != nil {
		return nil, err
	}
	return core.New(ps, core.BackendDirect)
}

// endToEnd adds the declared end-to-end metrics of an untraced phase.
func endToEnd(rep *report, ph *phase, l *loader, setupNorm, setupRaw, peaks []float64) {
	rep.addNorm("setup_s", "s", median(setupNorm), median(setupRaw), len(setupNorm))
	docsN, docsR := ph.rates(func(s *sliceResult) int { return s.docs }, 1)
	rep.addNorm("docs_per_s", "1/s", median(docsN), median(docsR), len(docsN))
	mbN, mbR := ph.rates(func(s *sliceResult) int { return s.bytes }, 1e-6)
	rep.addNorm("mb_per_s", "MB/s", median(mbN), median(mbR), len(mbN))
	latN, latR := ph.latencies()
	n := len(latN)
	for _, p := range []float64{0.5, 0.9} {
		if !reportable(n, p) {
			rep.notef("latency p%g has %d samples beyond it, fewer than %d", p*100, beyond(n, p), minTail)
		}
	}
	rep.addNorm("latency_p50_ms", "ms", quantile(latN, 0.5), quantile(latR, 0.5), n)
	rep.addNorm("latency_p90_ms", "ms", quantile(latN, 0.9), quantile(latR, 0.9), n)
	if p := highestReportable(n); p > 0.9 {
		rep.notef("latency p%g = %.4g ms (raw %.4g ms), diagnostic only", p*100, quantile(latN, p), quantile(latR, p))
	}
	t := ph.total()
	rep.add("success_ratio", "ratio", 1-float64(rep.failed)/float64(max(rep.attempted, 1)), rep.attempted)
	acc, units := l.accuracy()
	if units < l.w.units {
		rep.notef("accuracy covers %d of %d units: the loop did not reach every request", units, l.w.units)
	}
	rep.add("accuracy", "ratio", acc, units)
	rep.add("peak_rss_mb", "MB", median(peaks), len(peaks))
	rep.notef("measured %d requests, %d documents over %.2f s of load", t.reqs, t.docs, t.wall.Seconds())
}

// layerInputs gathers what the per-layer metrics are computed from.
type layerInputs struct {
	untraced, traced                    *phase
	tr                                  *tracer
	l                                   *loader
	w                                   *workload
	st                                  *stack
	trainS, trainRate, createMS, loadMS []float64
	newMS                               []float64
	gcCycles                            uint32
	gcPauseNS                           uint64
	probeRaw, tripsRaw, hopsRaw         float64
	interference, steal                 float64
}

// perLayer adds the per-layer metrics of a traced run. Timings are
// normalised by the traced phase's median machine speed.
func perLayer(rep *report, in *layerInputs) {
	p := in.traced.speed()
	t := in.traced.total()
	in.tr.add(t.spans...)
	if in.tr.capped {
		rep.notef("span buffer full: later spans were dropped")
	}
	spans := in.tr.spans
	self := selfTimes(spans)
	// The handler's own comparable work is what the replay measures:
	// segmentation on /stream?spans=1, detection elsewhere.
	comparable := "core.detect"
	if in.w.name == mixedStream {
		comparable = "core.segment"
	}
	var handler, transport, detect []float64
	handlerByReq := map[int64]int64{}
	replayByReq := map[int64]int64{}
	for _, s := range spans {
		switch s.name {
		case "serve.handler":
			handler = append(handler, normDuration(float64(s.dur())/1e3, p))
			handlerByReq[s.req] = s.dur()
		case "http.request":
			transport = append(transport, normDuration(float64(self[s.id])/1e3, p))
		case "core.detect":
			detect = append(detect, normDuration(float64(s.dur())/1e3, p))
		}
		if s.name == comparable {
			replayByReq[s.req] += s.dur()
		}
	}
	var selfUS []float64
	for req, d := range replayByReq {
		if h, ok := handlerByReq[req]; ok {
			selfUS = append(selfUS, normDuration(float64(h-d)/1e3, p))
		}
	}
	handler, transport, detect, selfUS = sorted(handler), sorted(transport), sorted(detect), sorted(selfUS)
	st := t.stats
	docs := float64(max(st.docs, 1))
	kb := float64(max(st.bytes, 1)) / 1024
	probes := float64(max(st.probes, 1))

	rep.add("alphabet.translate_ns_per_kb", "ns/KB", normDuration(float64(st.translateNS)/kb, p), st.docs)
	rep.add("ngram.extract_ns_per_kb", "ns/KB", normDuration(float64(st.extractNS)/kb, p), st.docs)
	rep.add("ngram.grams_per_doc", "count", float64(st.grams)/docs, st.docs)
	rep.add("core.count_us_per_doc", "us", normDuration(float64(st.countNS)/1e3/docs, p), st.docs)
	rep.add("core.probes_per_doc", "count", float64(st.probes)/docs, st.docs)
	rep.add("core.hit_ratio", "ratio", float64(st.matches)/probes, st.probes)
	rep.add("bloom.fp_ratio", "ratio", float64(st.matches-st.refMatches)/probes, st.probes)
	rep.add("core.detect_us_p50", "us", quantile(detect, 0.5), len(detect))
	rep.add("core.detect_us_p99", "us", quantile(detect, 0.99), len(detect))
	detectAllocs, serveAllocs, serveBytes := measureAllocs(in.st.srv.Detector(), in.st.srv.Handler(), in.w.reqs)
	rep.add("core.detect_allocs_per_doc", "count", detectAllocs, 1)
	rep.add("core.segment_us_per_doc", "us", normDuration(float64(st.segmentNS)/1e3/docs, p), st.docs)
	rep.add("core.windows_per_doc", "count", float64(st.windows)/docs, st.docs)
	rep.add("core.spans_per_doc", "count", float64(st.spans)/docs, st.docs)
	rep.add("serve.handler_us_p50", "us", quantile(handler, 0.5), len(handler))
	rep.add("serve.handler_us_p90", "us", quantile(handler, 0.9), len(handler))
	rep.add("serve.self_us_p50", "us", quantile(selfUS, 0.5), len(selfUS))
	rep.add("serve.allocs_per_req", "count", serveAllocs, 1)
	rep.add("serve.alloc_bytes_per_req", "B", serveBytes, 1)
	rep.add("serve.resp_bytes_per_doc", "B", float64(t.respBytes)/float64(max(t.docs, 1)), t.docs)
	rep.add("http.transport_us_p50", "us", quantile(transport, 0.5), len(transport))
	rep.add("http.transport_us_p90", "us", quantile(transport, 0.9), len(transport))
	rep.add("train.s", "s", median(in.trainS), len(in.trainS))
	rep.add("train.mb_per_s", "MB/s", median(in.trainRate), len(in.trainRate))
	rep.add("registry.create_ms", "ms", median(in.createMS), len(in.createMS))
	rep.add("registry.load_ms", "ms", median(in.loadMS), len(in.loadMS))
	rep.add("core.new_ms", "ms", median(in.newMS), len(in.newMS))
	u := in.untraced.total()
	rep.add("runtime.gc_cycles_per_kdoc", "count", 1000*float64(in.gcCycles)/float64(max(u.docs, 1)), u.docs)
	rep.add("runtime.gc_pause_ms_total", "ms", float64(in.gcPauseNS)/1e6, int(in.gcCycles))
	rep.add("probe.ops_per_s_raw", "1/s", in.probeRaw, len(in.untraced.probes)+len(in.traced.probes))
	rep.add("probe.interference_pct", "%", in.interference, len(in.untraced.probes)+len(in.traced.probes))
	rep.add("host.steal_pct", "%", in.steal, 1)
	un, _ := in.untraced.rates(func(s *sliceResult) int { return s.docs }, 1)
	tn, _ := in.traced.rates(func(s *sliceResult) int { return s.docs }, 1)
	rep.add("tracing.overhead_pct", "%", 100*(1-median(tn)/median(un)), len(un)+len(tn))
	for _, c := range []struct {
		name string
		n    int
		p    float64
	}{{"core.detect_us_p99", len(detect), 0.99}, {"serve.handler_us_p90", len(handler), 0.9}, {"http.transport_us_p90", len(transport), 0.9}} {
		if !reportable(c.n, c.p) {
			rep.notef("%s has %d samples beyond it, fewer than %d", c.name, beyond(c.n, c.p), minTail)
		}
	}
}
