package main

import (
	"bytes"
	"net/http"
	"runtime"
	"sync"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/core"
	"bloomlang/internal/ngram"
)

// replayer re-runs a traced request's documents through the public
// calls of each layer on the serving detector, timing each call as a
// span. The program itself is not instrumented: every span comes from
// here, around a call into it.
type replayer struct {
	tr    *tracer
	det   *core.Detector
	ref   *core.Classifier // exact direct-lookup reference, traced run only
	proto ngram.Extractor
	langs int
	seg   core.SegmentConfig
	pool  sync.Pool
}

type replayScratch struct {
	codes []alphabet.Code
	grams []uint32
	spans []core.Span
}

func newReplayer(tr *tracer, det *core.Detector, ref *core.Classifier) (*replayer, error) {
	cfg := det.Config()
	e, err := ngram.NewExtractor(cfg.N)
	if err != nil {
		return nil, err
	}
	if cfg.Subsample > 1 {
		if err := e.SetSubsample(cfg.Subsample); err != nil {
			return nil, err
		}
	}
	rp := &replayer{tr: tr, det: det, ref: ref, proto: *e, langs: len(det.Languages()), seg: core.SegmentConfig{}.WithDefaults()}
	rp.pool.New = func() any { return &replayScratch{} }
	return rp, nil
}

// replayStats counts the work the replayed layers did.
type replayStats struct {
	docs, bytes, grams, probes int
	matches, refMatches        int
	windows, spans             int
	translateNS, extractNS     int64
	countNS, segmentNS         int64
}

func (s *replayStats) add(o *replayStats) {
	s.docs += o.docs
	s.bytes += o.bytes
	s.grams += o.grams
	s.probes += o.probes
	s.matches += o.matches
	s.refMatches += o.refMatches
	s.windows += o.windows
	s.spans += o.spans
	s.translateNS += o.translateNS
	s.extractNS += o.extractNS
	s.countNS += o.countNS
	s.segmentNS += o.segmentNS
}

// windows returns how many windows segmentation decides for a
// document of g n-grams: one for a document shorter than a window,
// else one per stride once the first window is full.
func (rp *replayer) windows(g int) int {
	if g <= rp.seg.Window {
		return 1
	}
	return (g-rp.seg.Window)/rp.seg.Stride + 1
}

// replay appends the replay spans of request r (request id req) to out.
// A /stream request's handler segments its documents, so its
// comparable replay is "core.segment"; the others detect.
func (rp *replayer) replay(out []span, st *replayStats, r *request, req int64) []span {
	sc := rp.pool.Get().(*replayScratch)
	defer rp.pool.Put(sc)
	tr := rp.tr
	root := span{id: tr.newID(), req: req, name: "replay", start: tr.now()}
	child := func(name string, a, b int64) span {
		return span{id: tr.newID(), parent: root.id, req: req, name: name, start: a, end: b}
	}
	for _, doc := range r.docs {
		if cap(sc.codes) < len(doc) {
			sc.codes = make([]alphabet.Code, len(doc))
		}
		codes := sc.codes[:len(doc)]
		t0 := tr.now()
		alphabet.TranslateInto(codes, doc)
		t1 := tr.now()
		e := rp.proto
		sc.grams = e.Feed(sc.grams[:0], codes)
		t2 := tr.now()
		res := rp.det.Classifier().ClassifyGrams(sc.grams)
		t3 := tr.now()
		rp.det.Detect(doc)
		t4 := tr.now()
		var err error
		sc.spans, err = rp.det.AppendSpans(sc.spans[:0], doc, core.SegmentConfig{})
		t5 := tr.now()
		if err != nil {
			panic(err) // the zero SegmentConfig is the validated default
		}
		out = append(out,
			child("alphabet.translate", t0, t1),
			child("ngram.extract", t1, t2),
			child("core.count", t2, t3),
			child("core.detect", t3, t4),
			child("core.segment", t4, t5))
		ref := rp.ref.ClassifyGrams(sc.grams)
		st.docs++
		st.bytes += len(doc)
		st.grams += len(sc.grams)
		st.probes += len(sc.grams) * rp.langs
		for i := range res.Counts {
			st.matches += res.Counts[i]
			st.refMatches += ref.Counts[i]
		}
		st.windows += rp.windows(len(sc.grams))
		st.spans += len(sc.spans)
		st.translateNS += t1 - t0
		st.extractNS += t2 - t1
		st.countNS += t3 - t2
		st.segmentNS += t5 - t4
	}
	root.end = tr.now()
	return append(out, root)
}

// allocsPerCall returns the heap allocations and bytes per call of f,
// over n calls, with the process otherwise idle.
func allocsPerCall(n int, f func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// discardWriter is a reusable http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Flush()                      {}

// measureAllocs measures, with the load stopped, the heap allocations
// of Detect per document and of the serving handler per request, over
// the first requests of the pool.
func measureAllocs(det *core.Detector, h http.Handler, reqs []request) (detectAllocs, serveAllocs, serveBytes float64) {
	var docs [][]byte
	for _, r := range reqs {
		docs = append(docs, r.docs...)
		if len(docs) >= 256 {
			break
		}
	}
	for _, d := range docs {
		det.Detect(d) // warm the detector's scratch pool
	}
	detectAllocs, _ = allocsPerCall(len(docs), func(i int) { det.Detect(docs[i]) })

	n := min(len(reqs), 64)
	hreqs := make([]*http.Request, 2*n)
	for i := range hreqs {
		r := &reqs[i%n]
		req, err := http.NewRequest(http.MethodPost, "http://perfbench"+r.path, bytes.NewReader(r.body))
		if err != nil {
			panic(err) // fixed host and path
		}
		hreqs[i] = req
	}
	w := &discardWriter{h: http.Header{}}
	for _, req := range hreqs[:n] { // warm-up half
		h.ServeHTTP(w, req)
	}
	serveAllocs, serveBytes = allocsPerCall(n, func(i int) { h.ServeHTTP(w, hreqs[n+i]) })
	return detectAllocs, serveAllocs, serveBytes
}
