package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bloomlang/perfbench/probe"
)

// Slice lengths of the measured phases: load runs in loadSlice windows,
// each followed by a probe slice with the load quiesced.
const (
	loadSlice  = 200 * time.Millisecond
	probeSlice = 50 * time.Millisecond
)

// loader drives the closed loop: conns connections, each sending its
// next request only when the previous answer is in and checked.
type loader struct {
	w      *workload
	st     *stack
	client *http.Client
	chk    *checker
	conns  int
	next   atomic.Uint64 // position in the request pool
	// answered holds, per pool request, the accuracy units its first
	// answer got right (-1 until answered); a later answer that
	// disagrees is a failure.
	answered []atomic.Int64
	tr       *tracer
	rp       *replayer
	errMu    sync.Mutex
	errs     []string
}

func newLoader(w *workload, client *http.Client, conns int) *loader {
	l := &loader{w: w, client: client, chk: newChecker(w.langs), conns: conns, answered: make([]atomic.Int64, len(w.reqs))}
	for i := range l.answered {
		l.answered[i].Store(-1)
	}
	return l
}

// tally is what one connection completed in one load slice.
type tally struct {
	reqs, failed, docs, bytes, respBytes int
	lat                                  []time.Duration
	spans                                []span
	stats                                replayStats
}

func (t *tally) merge(o *tally) {
	t.reqs += o.reqs
	t.failed += o.failed
	t.docs += o.docs
	t.bytes += o.bytes
	t.respBytes += o.respBytes
	t.lat = append(t.lat, o.lat...)
	t.spans = append(t.spans, o.spans...)
	t.stats.add(&o.stats)
}

// sliceResult is one load slice: what completed, and over how long.
type sliceResult struct {
	tally
	wall time.Duration
}

func (l *loader) fail(msg string) {
	l.errMu.Lock()
	defer l.errMu.Unlock()
	if len(l.errs) < 5 {
		l.errs = append(l.errs, msg)
	}
}

// runSlice runs the closed loop for about d and returns once every
// connection's last request is answered, so nothing is in flight when
// it returns.
func (l *loader) runSlice(d time.Duration, traced bool) sliceResult {
	start := time.Now()
	deadline := start.Add(d)
	tallies := make([]tally, l.conns)
	var wg sync.WaitGroup
	wg.Add(l.conns)
	for c := 0; c < l.conns; c++ {
		go func(t *tally) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				l.one(t, &buf, traced)
			}
		}(&tallies[c])
	}
	wg.Wait()
	res := sliceResult{wall: time.Since(start)}
	for i := range tallies {
		res.merge(&tallies[i])
	}
	return res
}

// one sends the next pool request, checks its answer and records it.
func (l *loader) one(t *tally, buf *bytes.Buffer, traced bool) {
	seq := l.next.Add(1) - 1
	idx := int(seq % uint64(len(l.w.reqs)))
	r := &l.w.reqs[idx]
	req, err := http.NewRequest(http.MethodPost, l.st.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		panic(err) // the URL is built from a loopback address and a fixed path
	}
	var root span
	if traced {
		root = span{id: l.tr.newID(), req: int64(seq) + 1, name: "http.request"}
		req.Header.Set(hdrReq, strconv.FormatInt(root.req, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(root.id, 10))
		root.start = l.tr.now()
	}
	t0 := time.Now()
	resp, err := l.client.Do(req)
	status := 0
	buf.Reset()
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	lat := time.Since(t0)
	if traced {
		root.end = l.tr.now()
	}
	t.reqs++
	if err != nil {
		t.failed++
		l.fail(fmt.Sprintf("%s: %v", r.path, err))
		return
	}
	good, err := l.chk.check(r, status, buf.Bytes())
	if err == nil {
		if prev := l.answered[idx].Swap(int64(good)); prev >= 0 && prev != int64(good) {
			err = fmt.Errorf("%s request %d: answer changed between repeats (%d then %d units right)", r.path, idx, prev, good)
		}
	}
	if err != nil {
		t.failed++
		l.fail(err.Error())
		return
	}
	t.docs += len(r.docs)
	t.bytes += r.bytes
	t.respBytes += buf.Len()
	t.lat = append(t.lat, lat)
	if traced {
		t.spans = append(t.spans, root)
		if seq%replayEvery == 0 {
			t.spans = l.rp.replay(t.spans, &t.stats, r, root.req)
		}
	}
}

// accuracy returns the share of accuracy units answered right, over
// the pool requests answered so far, and how many units that covers.
func (l *loader) accuracy() (float64, int) {
	good, units := 0, 0
	for i := range l.answered {
		if g := l.answered[i].Load(); g >= 0 {
			good += int(g)
			units += l.w.reqs[i].units
		}
	}
	if units == 0 {
		return 0, 0
	}
	return float64(good) / float64(units), units
}

// phase is a measured stretch: load slices with a probe slice before
// the first and after every one.
type phase struct {
	slices []sliceResult
	probes []probe.Slice
}

// sliceSpeed is the machine speed a load slice is normalised by: the
// mean of the probe slices on either side of it.
func (p *phase) sliceSpeed(i int) float64 {
	return (speed(p.probes[i]) + speed(p.probes[i+1])) / 2
}

// runPhase alternates load and probe slices for about d.
func (l *loader) runPhase(pr *probe.Probe, workers int, d time.Duration, traced bool) (*phase, error) {
	ph := &phase{}
	s, err := pr.Run(workers, probeSlice)
	if err != nil {
		return nil, err
	}
	ph.probes = append(ph.probes, s)
	deadline := time.Now().Add(d)
	for len(ph.slices) == 0 || time.Now().Before(deadline) {
		ph.slices = append(ph.slices, l.runSlice(loadSlice, traced))
		s, err := pr.Run(workers, probeSlice)
		if err != nil {
			return nil, err
		}
		ph.probes = append(ph.probes, s)
	}
	return ph, nil
}

// total merges every slice of the phase.
func (p *phase) total() sliceResult {
	var t sliceResult
	for i := range p.slices {
		t.merge(&p.slices[i].tally)
		t.wall += p.slices[i].wall
	}
	return t
}

// rates returns the normalised and raw per-slice rates of a quantity.
func (p *phase) rates(of func(*sliceResult) int, scale float64) (norm, raw []float64) {
	for i := range p.slices {
		r := float64(of(&p.slices[i])) / p.slices[i].wall.Seconds() * scale
		raw = append(raw, r)
		norm = append(norm, normRate(r, p.sliceSpeed(i)))
	}
	return norm, raw
}

// latencies returns every request latency in milliseconds, normalised
// by its slice's probe rate, and raw; both sorted.
func (p *phase) latencies() (norm, raw []float64) {
	for i := range p.slices {
		sp := p.sliceSpeed(i)
		for _, d := range p.slices[i].lat {
			ms := float64(d) / 1e6
			raw = append(raw, ms)
			norm = append(norm, normDuration(ms, sp))
		}
	}
	return sorted(norm), sorted(raw)
}

// speed returns the median machine speed of the phase.
func (p *phase) speed() float64 {
	rs := make([]float64, len(p.probes))
	for i, s := range p.probes {
		rs[i] = speed(s)
	}
	return median(rs)
}
