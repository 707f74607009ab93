// Package serve is the network-facing serving subsystem: an
// http.Handler that exposes a trained classifier as the
// language-detection service the paper positions the hardware behind —
// a search-engine or filtering front-end fielding a heavy stream of
// documents (§1, §5.4).
//
// Endpoints:
//
//	POST /detect          body = one raw document        -> one JSON Detection
//	POST /batch           body = JSON array of documents -> JSON array of Detections
//	POST /stream          body = NDJSON documents        -> NDJSON Detections, incremental
//	                      (?spans=1 adds the per-document mixed-language spans)
//	POST /segment         body = one raw document        -> JSON Segmentation (spans)
//	GET  /healthz         liveness probe                 -> 200 "ok"
//	GET  /statsz          request/byte/latency counters  -> JSON Snapshot
//	GET  /admin/profiles  profile versions + active      -> JSON ProfilesStatus (registry-backed servers)
//	POST /admin/reload    hot-swap to the active version -> JSON ReloadStatus   (registry-backed servers)
//
// All endpoints route through one core.Detector, reached through a
// registry.Handle: every request atomically loads the current
// (detector, version) snapshot once and uses it throughout, so a
// profile hot swap is zero-downtime — in-flight requests keep the
// detector they loaded, requests arriving after the swap see the new
// one, and no request ever blocks on or observes a torn swap. Failed
// requests are answered with a JSON error body ({"error": ...,
// "status": ...}): oversized bodies as 413, request-body read
// timeouts as 408.
package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"bloomlang/internal/core"
	"bloomlang/internal/registry"
)

// Config carries the serving-layer knobs.
type Config struct {
	// Backend selects the membership structure; the zero value is
	// BackendDirect, the exact kernel.
	Backend core.Backend
	// Workers bounds /batch fan-out; 0 means GOMAXPROCS.
	Workers int
	// MinMargin is the normalized winner-margin floor below which a
	// document is answered as unknown (language ""); default 0 accepts
	// everything but exact-empty documents.
	MinMargin float64
	// MinNGrams is the minimum testable n-grams for a known outcome;
	// effective minimum 1.
	MinNGrams int
	// MaxBodyBytes caps /detect and /batch request bodies; default 10 MiB.
	// /stream is unbounded in total size by design and bounded per line
	// instead.
	MaxBodyBytes int64
	// MaxBatchDocs caps the number of documents in one /batch request;
	// default 1024.
	MaxBatchDocs int
	// MaxLineBytes caps one NDJSON line on /stream; default 1 MiB.
	MaxLineBytes int
	// IncludeCounts adds per-language match counts to every Detection
	// (always included on /detect).
	IncludeCounts bool
	// Segment carries the sliding-window geometry /segment and the
	// /stream spans mode run under; the zero value selects the core
	// defaults. Invalid geometry fails server construction.
	Segment core.SegmentConfig
	// ReadTimeout bounds reading a whole request (header + body) on
	// servers built by HTTPServer; 0 means no limit. A tripped read
	// deadline surfaces as a 408 JSON error. Long-lived /stream uploads
	// need this generous or zero.
	ReadTimeout time.Duration
	// WriteTimeout bounds writing a response on servers built by
	// HTTPServer; 0 means no limit.
	WriteTimeout time.Duration
	// IdleTimeout bounds keep-alive idleness on servers built by
	// HTTPServer; 0 means no limit.
	IdleTimeout time.Duration
	// Registry, when set, enables the /admin/profiles and /admin/reload
	// endpoints and SIGHUP-style Reload against this profile store.
	Registry *registry.Registry
}

func (c *Config) applyDefaults() {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 10 << 20
	}
	if c.MaxBatchDocs <= 0 {
		c.MaxBatchDocs = 1024
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 1 << 20
	}
}

// Validate reports the configuration errors New fails on: invalid
// segmentation geometry, or a MinMargin that is NaN or infinite (a NaN
// floor would silently disable unknown thresholding).
func (c Config) Validate() error {
	if math.IsNaN(c.MinMargin) || math.IsInf(c.MinMargin, 0) {
		return fmt.Errorf("serve: min margin %v is not a finite number", c.MinMargin)
	}
	return c.Segment.Validate()
}

// Server owns the hot-swappable detector handle and the serving
// counters. It is safe for concurrent use by any number of
// connections, including concurrent profile reloads.
type Server struct {
	cfg    Config
	handle *registry.Handle
	reg    *registry.Registry
	start  time.Time

	reloadMu sync.Mutex // serializes Reload; request paths never take it

	detect        endpointStats
	batch         endpointStats
	stream        endpointStats
	segment       endpointStats
	healthz       endpointStats
	statsz        endpointStats
	adminProfiles endpointStats
	adminReload   endpointStats
}

// New builds a server from trained profiles. The profiles serve under
// the empty version id unless the server is registry-backed and later
// reloaded.
func New(ps *core.ProfileSet, cfg Config) (*Server, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	det, err := cfg.newDetector(ps)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:    cfg,
		handle: registry.NewHandle(det, ""),
		reg:    cfg.Registry,
		start:  time.Now(),
	}, nil
}

// NewFromRegistry builds a server from the registry's active profile
// version; cfg.Registry is overridden with reg. The server then serves
// that version until Reload (or /admin/reload) swaps in a newer one.
func NewFromRegistry(reg *registry.Registry, cfg Config) (*Server, error) {
	cfg.applyDefaults()
	cfg.Registry = reg
	ps, m, err := reg.LoadActive()
	if err != nil {
		return nil, err
	}
	s, err := New(ps, cfg)
	if err != nil {
		return nil, err
	}
	s.handle.Swap(s.handle.Detector(), m.Version)
	return s, nil
}

// newDetector builds a detector over ps under the configured backend and
// detection policy.
func (c *Config) newDetector(ps *core.ProfileSet) (*core.Detector, error) {
	return core.NewDetector(ps,
		core.WithBackend(c.Backend),
		core.WithWorkers(c.Workers),
		core.WithMinMargin(c.MinMargin),
		core.WithMinNGrams(c.MinNGrams))
}

// Detector returns the detector currently serving requests. Callers
// needing the detector and its version to agree should use Snapshot.
func (s *Server) Detector() *core.Detector { return s.handle.Detector() }

// Snapshot returns the current (detector, version) pairing.
func (s *Server) Snapshot() *registry.Snapshot { return s.handle.Snapshot() }

// SwapDetector atomically replaces the serving detector — the
// registry-less hot-swap path for embedders that manage their own
// profile lifecycle. It returns the previously served version id.
// SwapDetector serializes with Reload, so a concurrent /admin/reload
// cannot interleave with (and silently clobber) an embedder's swap.
func (s *Server) SwapDetector(det *core.Detector, version string) string {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.handle.Swap(det, version).Version
}

// ReloadStatus reports one Reload outcome.
type ReloadStatus struct {
	// Previous is the version serving before the reload.
	Previous string `json:"previous"`
	// Active is the version serving after the reload (the registry's
	// active version).
	Active string `json:"active"`
	// Changed reports whether the reload actually swapped detectors;
	// reloading an unchanged active version is a no-op.
	Changed bool `json:"changed"`
	// Languages is the served language inventory after the reload.
	Languages []string `json:"languages"`
}

// Reload loads the registry's active profile version and hot-swaps it
// into the serving path. Requests in flight finish on the detector
// they started with; requests arriving after Reload returns see the
// new version. Reloading while the served version is already the
// active one is a cheap no-op.
func (s *Server) Reload() (ReloadStatus, error) {
	if s.reg == nil {
		return ReloadStatus{}, errors.New("serve: no registry configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	prev := s.handle.Version()
	activeID, err := s.reg.ActiveVersion()
	if err != nil {
		return ReloadStatus{}, err
	}
	if activeID == prev {
		det := s.handle.Detector()
		return ReloadStatus{Previous: prev, Active: prev, Languages: det.Languages()}, nil
	}
	ps, m, err := s.reg.LoadActive()
	if err != nil {
		return ReloadStatus{}, err
	}
	det, err := s.cfg.newDetector(ps)
	if err != nil {
		return ReloadStatus{}, err
	}
	s.handle.Swap(det, m.Version)
	return ReloadStatus{Previous: prev, Active: m.Version, Changed: true, Languages: det.Languages()}, nil
}

// Handler returns the service mux. The admin endpoints are mounted
// only on registry-backed servers; deployments should keep /admin
// reachable by operators only.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/detect", s.measure(&s.detect, http.MethodPost, s.handleDetect))
	mux.Handle("/batch", s.measure(&s.batch, http.MethodPost, s.handleBatch))
	mux.Handle("/stream", s.measure(&s.stream, http.MethodPost, s.handleStream))
	mux.Handle("/segment", s.measure(&s.segment, http.MethodPost, s.handleSegment))
	mux.Handle("/healthz", s.measure(&s.healthz, http.MethodGet, s.handleHealthz))
	mux.Handle("/statsz", s.measure(&s.statsz, http.MethodGet, s.handleStatsz))
	if s.reg != nil {
		mux.Handle("/admin/profiles", s.measure(&s.adminProfiles, http.MethodGet, s.handleAdminProfiles))
		mux.Handle("/admin/reload", s.measure(&s.adminReload, http.MethodPost, s.handleAdminReload))
	}
	return mux
}

// HTTPServer wraps the handler in an http.Server with the configured
// read/write/idle timeouts — the hardened listener cmd/langidd runs.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       s.cfg.ReadTimeout,
		WriteTimeout:      s.cfg.WriteTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
	}
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Snapshot {
	snap := s.handle.Snapshot()
	det := snap.Detector
	out := Snapshot{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Backend:        det.Backend().String(),
		Workers:        det.Workers(),
		MinMargin:      det.MinMargin(),
		MinNGrams:      det.MinNGrams(),
		ProfileVersion: snap.Version,
		Languages:      det.Languages(),
		Endpoints: map[string]EndpointSnapshot{
			"/detect":  s.detect.snapshot(),
			"/batch":   s.batch.snapshot(),
			"/stream":  s.stream.snapshot(),
			"/segment": s.segment.snapshot(),
			"/healthz": s.healthz.snapshot(),
			"/statsz":  s.statsz.snapshot(),
		},
	}
	if s.reg != nil {
		out.Endpoints["/admin/profiles"] = s.adminProfiles.snapshot()
		out.Endpoints["/admin/reload"] = s.adminReload.snapshot()
	}
	return out
}

// statusRecorder captures the response status for error counting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so /stream can push each
// result line as it is produced.
func (w *statusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the real writer for
// full-duplex control.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (s *Server) measure(st *endpointStats, method string, h func(http.ResponseWriter, *http.Request, *endpointStats)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		st.requests.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		if r.Method != method {
			rec.Header().Set("Allow", method)
			jsonError(rec, http.StatusMethodNotAllowed, fmt.Sprintf("%s requires %s", r.URL.Path, method))
		} else {
			h(rec, r, st)
		}
		if rec.status >= 400 {
			st.errors.Add(1)
		}
		st.latencyNS.Add(time.Since(start).Nanoseconds())
	})
}

// Detection is one classified document, the unit of every response.
type Detection struct {
	// ID echoes the request document's id, when one was given.
	ID string `json:"id,omitempty"`
	// Language is the winning language code, or "" when the detection
	// is unknown (no n-grams, or below the confidence thresholds).
	Language string `json:"language"`
	// Name is the English language name, when known.
	Name string `json:"name,omitempty"`
	// NGrams is the number of n-grams tested.
	NGrams int `json:"ngrams"`
	// Count is the winner's raw match count.
	Count int `json:"count"`
	// Score is the normalized confidence Count/NGrams in [0,1].
	Score float64 `json:"score"`
	// Margin is the winner's normalized lead over the runner-up.
	Margin float64 `json:"margin"`
	// Unknown reports that no language cleared the confidence
	// thresholds; Language is "" and the numbers describe the would-be
	// winner.
	Unknown bool `json:"unknown,omitempty"`
	// Counts holds per-language match counts, when requested.
	Counts map[string]int `json:"counts,omitempty"`
	// Spans holds the document's mixed-language segmentation, when
	// requested (/stream with ?spans=1).
	Spans []SpanDetection `json:"spans,omitempty"`
	// Error reports a per-document failure on /stream.
	Error string `json:"error,omitempty"`
}

// SpanDetection is one contiguous single-language region in a
// segmentation response: the half-open byte range [start, end) of the
// request document and the language called for it.
type SpanDetection struct {
	// Start is the first byte of the span.
	Start int `json:"start"`
	// End is the byte after the last byte of the span.
	End int `json:"end"`
	// Language is the span's language code, or "" when unknown.
	Language string `json:"language"`
	// Name is the English language name, when known.
	Name string `json:"name,omitempty"`
	// Score is the mean windowed confidence over the span.
	Score float64 `json:"score"`
	// Margin is the mean windowed winner margin over the span.
	Margin float64 `json:"margin"`
	// Unknown reports that no language cleared the confidence
	// thresholds for this region.
	Unknown bool `json:"unknown,omitempty"`
}

// Segmentation is the /segment response: the document's span tiling
// under the server's segmentation geometry.
type Segmentation struct {
	// Bytes is the length of the segmented document.
	Bytes int `json:"bytes"`
	// Window and Stride echo the effective segmentation geometry in
	// n-grams, so clients can interpret boundary granularity.
	Window int `json:"window"`
	Stride int `json:"stride"`
	// Spans tile [0, Bytes) in order.
	Spans []SpanDetection `json:"spans"`
}

// spanDetections converts core spans to the wire shape, counting them
// on the endpoint's span counter.
func spanDetections(spans []core.Span, st *endpointStats) []SpanDetection {
	out := make([]SpanDetection, len(spans))
	for i, sp := range spans {
		out[i] = SpanDetection{
			Start:    sp.Start,
			End:      sp.End,
			Language: sp.Lang,
			Name:     core.LanguageName(sp.Lang),
			Score:    sp.Score,
			Margin:   sp.Margin,
			Unknown:  sp.Unknown,
		}
	}
	st.spans.Add(int64(len(spans)))
	return out
}

// detection converts a Match into the wire shape, attaching per-language
// counts when given and bumping the endpoint's unknown counter. det
// must be the detector that produced m, so language order agrees.
func (s *Server) detection(det *core.Detector, id string, m core.Match, counts []int, st *endpointStats) Detection {
	d := Detection{
		ID:       id,
		Language: m.Lang,
		Name:     core.LanguageName(m.Lang),
		NGrams:   m.NGrams,
		Count:    m.Count,
		Score:    m.Score,
		Margin:   m.Margin,
		Unknown:  m.Unknown,
	}
	if counts != nil {
		langs := det.Languages()
		d.Counts = make(map[string]int, len(langs))
		for i, l := range langs {
			d.Counts[l] = counts[i]
		}
	}
	if m.Unknown {
		st.unknown.Add(1)
	}
	return d
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	// One snapshot per request: a concurrent hot swap must not change
	// the detector under a request that already started.
	det := s.handle.Detector()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpReadError(w, err)
		return
	}
	st.bytes.Add(int64(len(body)))
	// /detect always reports per-language counts; the stack buffer
	// holds them for up to 32 languages without a heap allocation.
	var buf [32]int
	counts, m := det.DetectCounts(buf[:0], body)
	if m.NGrams == 0 {
		jsonError(w, http.StatusUnprocessableEntity, "document too short to classify")
		return
	}
	st.docs.Add(1)
	writeJSON(w, s.detection(det, "", m, counts, st))
}

// handleSegment segments one raw document into contiguous
// single-language spans under the server's segmentation geometry —
// the mixed-language answer /detect cannot give. Like every endpoint
// it runs against one detector snapshot, so segmentation is stable
// across concurrent profile hot swaps.
func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	det := s.handle.Detector()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpReadError(w, err)
		return
	}
	st.bytes.Add(int64(len(body)))
	if len(body) == 0 {
		jsonError(w, http.StatusUnprocessableEntity, "document is empty")
		return
	}
	spans, err := det.DetectSpans(body, s.cfg.Segment)
	if err != nil {
		// Unreachable while New validates the geometry.
		jsonError(w, http.StatusInternalServerError, "segmentation misconfigured: "+err.Error())
		return
	}
	st.docs.Add(1)
	eff := s.cfg.Segment.WithDefaults()
	writeJSON(w, Segmentation{
		Bytes:  len(body),
		Window: eff.Window,
		Stride: eff.Stride,
		Spans:  spanDetections(spans, st),
	})
}

// batchDoc accepts either a bare JSON string or {"id": ..., "text": ...}.
type batchDoc struct {
	ID   string
	Text string
}

func (d *batchDoc) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		return json.Unmarshal(data, &d.Text)
	}
	var obj struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}
	if err := json.Unmarshal(data, &obj); err != nil {
		return err
	}
	d.ID, d.Text = obj.ID, obj.Text
	return nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	det := s.handle.Detector()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpReadError(w, err)
		return
	}
	var reqDocs []batchDoc
	if err := json.Unmarshal(body, &reqDocs); err != nil {
		jsonError(w, http.StatusBadRequest, "body must be a JSON array of documents: "+err.Error())
		return
	}
	if len(reqDocs) > s.cfg.MaxBatchDocs {
		jsonError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch of %d documents exceeds limit %d", len(reqDocs), s.cfg.MaxBatchDocs))
		return
	}
	docs := make([][]byte, len(reqDocs))
	var bytes int64
	for i, d := range reqDocs {
		docs[i] = []byte(d.Text)
		bytes += int64(len(d.Text))
	}
	st.bytes.Add(bytes)
	st.docs.Add(int64(len(docs)))
	out := make([]Detection, len(docs))
	if s.cfg.IncludeCounts {
		nLangs := len(det.Languages())
		counts, ms := det.DetectBatchCounts(nil, docs)
		for i, m := range ms {
			out[i] = s.detection(det, reqDocs[i].ID, m, counts[i*nLangs:(i+1)*nLangs], st)
		}
	} else {
		for i, m := range det.DetectBatch(docs) {
			out[i] = s.detection(det, reqDocs[i].ID, m, nil, st)
		}
	}
	writeJSON(w, out)
}

// handleStream reads NDJSON documents (one JSON string or {id, text}
// object per line) and writes one NDJSON Detection per line, flushed as
// produced. The whole exchange uses bounded memory regardless of how
// many documents flow through: one line buffer, one core.Stream reset
// at each document boundary — the software mirror of the hardware's
// End-of-Document marker in the DMA stream (§3.3). The stream keeps its
// request-start detector for its whole life, even across hot swaps.
// Both modes run the same per-line body and count each JSON-decoded
// line without copying it; with ?spans=1 the stream is built to
// segment and every result line also carries the document's spans.
// The stream's running totals are the document-level detection, so
// spans mode still extracts and hashes each n-gram exactly once.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	det := s.handle.Detector()
	spansMode := queryFlag(r, "spans")
	var stream *core.Stream
	if spansMode {
		var err error
		if stream, err = det.NewSpanStream(s.cfg.Segment); err != nil {
			// Unreachable while New validates the geometry.
			jsonError(w, http.StatusInternalServerError, "segmentation misconfigured: "+err.Error())
			return
		}
	} else {
		stream = det.NewStream()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Result lines go out while request lines are still coming in; for
	// HTTP/1 the server would otherwise cut off the request body at the
	// first flush.
	http.NewResponseController(w).EnableFullDuplex()
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	sc := bufio.NewScanner(r.Body)
	// Scanner's effective cap is max(cap(buf), max), so the initial
	// buffer must not exceed the configured line limit.
	bufCap := 64 << 10
	if s.cfg.MaxLineBytes < bufCap {
		bufCap = s.cfg.MaxLineBytes
	}
	sc.Buffer(make([]byte, 0, bufCap), s.cfg.MaxLineBytes)
	var countsBuf []int
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var doc batchDoc
		if err := json.Unmarshal(line, &doc); err != nil {
			enc.Encode(Detection{Error: "bad document line: " + err.Error()})
			continue
		}
		st.bytes.Add(int64(len(doc.Text)))
		st.docs.Add(1)
		stream.Reset()
		io.WriteString(stream, doc.Text)
		spans := stream.Finish()
		var counts []int
		if s.cfg.IncludeCounts {
			countsBuf = stream.AppendCounts(countsBuf[:0])
			counts = countsBuf
		}
		d := s.detection(det, doc.ID, stream.Match(), counts, st)
		if spansMode {
			d.Spans = spanDetections(spans, st)
		}
		enc.Encode(d)
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := sc.Err(); err != nil {
		// Headers are long gone; report the failure in-band and stop.
		msg := err.Error()
		if errors.Is(err, bufio.ErrTooLong) {
			msg = fmt.Sprintf("document line exceeds %d bytes", s.cfg.MaxLineBytes)
		}
		enc.Encode(Detection{Error: msg})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	io.WriteString(w, "ok\n")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	writeJSON(w, s.Stats())
}

// ProfilesStatus is the /admin/profiles payload.
type ProfilesStatus struct {
	// Serving is the version the handle serves right now.
	Serving string `json:"serving"`
	// Active is the registry's active version — it differs from
	// Serving between an Activate and the next reload.
	Active string `json:"active,omitempty"`
	// Versions lists every version manifest in ascending order.
	Versions []*registry.Manifest `json:"versions"`
}

func (s *Server) handleAdminProfiles(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	versions, err := s.reg.List()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	active, err := s.reg.ActiveVersion()
	if err != nil && !errors.Is(err, registry.ErrNoActive) {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, ProfilesStatus{
		Serving:  s.handle.Version(),
		Active:   active,
		Versions: versions,
	})
}

func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	status, err := s.Reload()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, status)
}

// queryFlag reports whether a boolean query parameter is set truthy
// ("1", "true", "t", ...).
func queryFlag(r *http.Request, name string) bool {
	v, err := strconv.ParseBool(r.URL.Query().Get(name))
	return err == nil && v
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// errorBody is the JSON envelope every failed request is answered
// with.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// jsonError writes a JSON error response with the given status.
func jsonError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg, Status: status})
}

// httpReadError maps body-read failures to statuses: the MaxBytesReader
// limit becomes 413, a tripped read deadline (Config.ReadTimeout)
// becomes 408, everything else 400.
func httpReadError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		jsonError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	var netErr net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &netErr) && netErr.Timeout()) {
		jsonError(w, http.StatusRequestTimeout, "timed out reading request body")
		return
	}
	jsonError(w, http.StatusBadRequest, err.Error())
}
