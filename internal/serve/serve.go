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
// All endpoints route through one core.Detector, reached through the
// server's serving snapshot: one atomic pointer to an immutable
// (detector, profile version, language table) triple that New,
// NewFromRegistry and Reload build whole. Every request loads it once
// and takes all three from that one load, so a profile hot swap is
// zero-downtime — in-flight requests keep the snapshot they loaded,
// requests arriving after the swap see the new one, and no request
// ever blocks on, or mixes the languages of, two profile versions.
// Failed requests are answered with a JSON error body ({"error": ...,
// "status": ...}): oversized bodies as 413, request-body read timeouts
// as 408.
//
// The document endpoints speak JSON through one small codec (wire.go):
// its decoder reads the documents JSON clients send — a string, null,
// or an object with only the keys "id" and "text", holding strings or
// null — in one pass over the request's pooled buffer, and their text
// goes straight to the counting stream. Any other request (another key, a
// value of another type, invalid UTF-8, malformed JSON) goes whole to
// encoding/json, which validates it, reports a malformed one with its
// own syntax error and reads the documents of the rest. Responses
// are appended into a pooled buffer straight from core's matches and
// spans, with each snapshot's language codes and names quoted once,
// when the snapshot is built. The codec accepts exactly the documents
// encoding/json accepts and writes the bytes it writes; FuzzWireCodec
// and TestResponsesMatchEncodingJSON hold it to that. /statsz, the
// admin endpoints and error bodies use encoding/json. /stream reads
// its lines with a bufio.Scanner and flushes its answers only before
// it reads more of the request body, where it could block, and only
// when the body read so far ends with a line: a client that sends one
// whole line and waits gets each answer before it must send the next,
// and a client that stops in the middle of a line gets no answers
// until that line is complete. The last answers go out with the end
// of the response.
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
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bloomlang/internal/core"
	"bloomlang/internal/registry"
)

// Config carries the serving-layer knobs. There is no backend knob:
// every profile set, at every n, is served on core's exact kernel,
// direct-lookup.
type Config struct {
	// MinMargin is the normalized winner-margin floor below which a
	// document is answered as unknown (language ""); default 0 accepts
	// everything but exact-empty documents.
	MinMargin float64
	// MinNGrams is the minimum testable n-grams for a known outcome;
	// effective minimum 1.
	MinNGrams int
	// MaxBodyBytes caps /detect, /batch and /segment request bodies;
	// default 10 MiB. /stream is unbounded in total size by design and
	// bounded per line instead.
	MaxBodyBytes int64
	// MaxBatchDocs caps the number of documents in one /batch request;
	// default 1024.
	MaxBatchDocs int
	// MaxLineBytes caps one NDJSON line on /stream; default 1 MiB.
	MaxLineBytes int
	// IncludeCounts adds per-language match counts to every Detection
	// (always included on /detect).
	IncludeCounts bool
	// Segment carries the segmentation configuration /segment and the
	// /stream spans mode run under; the zero value selects the core
	// defaults. An invalid one fails server construction.
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

// Validate reports the configuration errors New fails on: an invalid
// segmentation configuration, or a MinMargin that is NaN or infinite
// (a NaN floor would silently disable unknown thresholding).
func (c Config) Validate() error {
	if math.IsNaN(c.MinMargin) || math.IsInf(c.MinMargin, 0) {
		return fmt.Errorf("serve: min margin %v is not a finite number", c.MinMargin)
	}
	return c.Segment.Validate()
}

// Server owns the hot-swappable serving snapshot and the serving
// counters. It is safe for concurrent use by any number of
// connections, including concurrent profile reloads.
type Server struct {
	cfg   Config
	cur   atomic.Pointer[snapshot]
	reg   *registry.Registry
	start time.Time

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

// snapshot is one immutable serving state: the detector, the registry
// version it was built from ("" for a server built straight from
// profiles) and its languages quoted for the encoder. A request loads
// the server's snapshot once and takes all three from that load.
type snapshot struct {
	det     *core.Detector
	version string
	langs   *langTable
}

// New builds a server from trained profiles, served under the empty
// version id for its whole life: it has no registry, so no /admin
// endpoints and no Reload.
func New(ps *core.ProfileSet, cfg Config) (*Server, error) {
	return newServer(nil, ps, "", cfg)
}

// NewFromRegistry builds a server from the registry's active profile
// version. The server serves that version until Reload (SIGHUP in
// langidd, or /admin/reload) swaps in the version then active.
func NewFromRegistry(reg *registry.Registry, cfg Config) (*Server, error) {
	ps, m, err := reg.LoadActive()
	if err != nil {
		return nil, err
	}
	return newServer(reg, ps, m.Version, cfg)
}

// newServer builds a server serving ps under the given version id,
// reloading from reg when reg is not nil.
func newServer(reg *registry.Registry, ps *core.ProfileSet, version string, cfg Config) (*Server, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	snap, err := cfg.newSnapshot(ps, version)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, reg: reg, start: time.Now()}
	s.cur.Store(snap)
	return s, nil
}

// newSnapshot builds the serving state of ps under version: a detector
// on core's exact kernel under the configured detection policy,
// and its language table.
func (c *Config) newSnapshot(ps *core.ProfileSet, version string) (*snapshot, error) {
	det, err := core.NewDetector(ps,
		core.WithMinMargin(c.MinMargin),
		core.WithMinNGrams(c.MinNGrams))
	if err != nil {
		return nil, err
	}
	codes := det.Languages()
	names := make([]string, len(codes))
	for i, code := range codes {
		names[i] = core.LanguageName(code)
	}
	return &snapshot{det: det, version: version, langs: newLangTable(codes, names)}, nil
}

// Detector returns the detector currently serving requests.
func (s *Server) Detector() *core.Detector { return s.cur.Load().det }

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
	prev := s.cur.Load()
	activeID, err := s.reg.ActiveVersion()
	if err != nil {
		return ReloadStatus{}, err
	}
	if activeID == prev.version {
		return ReloadStatus{Previous: prev.version, Active: prev.version, Languages: prev.det.Languages()}, nil
	}
	ps, m, err := s.reg.LoadActive()
	if err != nil {
		return ReloadStatus{}, err
	}
	next, err := s.cfg.newSnapshot(ps, m.Version)
	if err != nil {
		return ReloadStatus{}, err
	}
	s.cur.Store(next)
	return ReloadStatus{Previous: prev.version, Active: m.Version, Changed: true, Languages: next.det.Languages()}, nil
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
	snap := s.cur.Load()
	det := snap.det
	out := Snapshot{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Backend:        det.Backend().String(),
		MinMargin:      det.MinMargin(),
		MinNGrams:      det.MinNGrams(),
		ProfileVersion: snap.version,
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

func (s *Server) measure(st *endpointStats, method string, h func(http.ResponseWriter, *http.Request, *endpointStats)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		st.requests.Add(1)
		if r.Method != method {
			w.Header().Set("Allow", method)
			jsonError(w, st, http.StatusMethodNotAllowed, fmt.Sprintf("%s requires %s", r.URL.Path, method))
		} else {
			h(w, r, st)
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
	// Score is the fraction of the span's n-grams found in its
	// language's profile, as /detect scores a document.
	Score float64 `json:"score"`
	// Margin is the winner margin over the span's n-grams.
	Margin float64 `json:"margin"`
	// Unknown reports that no language cleared the confidence
	// thresholds for this region.
	Unknown bool `json:"unknown,omitempty"`
}

// Segmentation is the /segment response: the document's span tiling
// under the server's segmentation configuration.
type Segmentation struct {
	// Bytes is the length of the segmented document.
	Bytes int `json:"bytes"`
	// Window, Stride and Penalty echo the effective segmentation
	// configuration in n-grams: the commit horizon, the boundary
	// granularity and the price of one language change.
	Window  int `json:"window"`
	Stride  int `json:"stride"`
	Penalty int `json:"penalty"`
	// Spans tile [0, Bytes) in order.
	Spans []SpanDetection `json:"spans"`
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	// One snapshot per request: a concurrent hot swap must not change
	// the detector or its languages under a request that already
	// started.
	snap := s.cur.Load()
	b := getBuffers()
	defer b.release()
	body, err := s.readBody(w, r, b)
	if err != nil {
		httpReadError(w, st, err)
		return
	}
	st.bytes.Add(int64(len(body)))
	// /detect always reports per-language counts; the stack buffer
	// holds them for up to 32 languages without a heap allocation.
	var buf [32]int
	counts, m := snap.det.DetectCounts(buf[:0], body)
	if m.NGrams == 0 {
		jsonError(w, st, http.StatusUnprocessableEntity, "document too short to classify")
		return
	}
	st.docs.Add(1)
	st.countUnknown(m)
	b.out = snap.langs.appendDetection(b.out[:0], nil, m, counts, nil, "")
	writeJSONBytes(w, append(b.out, '\n'))
}

// handleSegment segments one raw document into contiguous
// single-language spans under the server's segmentation configuration —
// the mixed-language answer /detect cannot give. Like every endpoint
// it runs against one serving snapshot, so segmentation is stable
// across concurrent profile hot swaps.
func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	snap := s.cur.Load()
	b := getBuffers()
	defer b.release()
	body, err := s.readBody(w, r, b)
	if err != nil {
		httpReadError(w, st, err)
		return
	}
	st.bytes.Add(int64(len(body)))
	if len(body) == 0 {
		jsonError(w, st, http.StatusUnprocessableEntity, "document is empty")
		return
	}
	spans, err := snap.det.DetectSpans(body, s.cfg.Segment)
	if err != nil {
		// Unreachable while New validates the configuration.
		jsonError(w, st, http.StatusInternalServerError, "segmentation misconfigured: "+err.Error())
		return
	}
	st.docs.Add(1)
	st.spans.Add(int64(len(spans)))
	b.out = snap.langs.appendSegmentation(b.out[:0], len(body), s.cfg.Segment.WithDefaults(), spans)
	writeJSONBytes(w, append(b.out, '\n'))
}

// handleBatch classifies a JSON array of documents, each a string or
// an {"id", "text"} object, in order on one borrowed core.Stream reset
// per document, as /stream counts its lines.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	snap := s.cur.Load()
	b := getBuffers()
	defer b.release()
	body, err := s.readBody(w, r, b)
	if err != nil {
		httpReadError(w, st, err)
		return
	}
	var n int
	b.ids, b.texts, n, err = b.dec.batch(body, s.cfg.MaxBatchDocs, b.ids[:0], b.texts[:0])
	if err != nil {
		jsonError(w, st, http.StatusBadRequest, "body must be a JSON array of documents: "+err.Error())
		return
	}
	if n > s.cfg.MaxBatchDocs {
		jsonError(w, st, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch of %d documents exceeds limit %d", n, s.cfg.MaxBatchDocs))
		return
	}
	var bytes int64
	for _, text := range b.texts {
		bytes += int64(len(text))
	}
	st.bytes.Add(bytes)
	st.docs.Add(int64(n))
	stream, _ := snap.det.BorrowStream(nil) // a counting stream has no config to reject
	defer snap.det.ReturnStream(stream)
	langs := snap.langs
	out := append(b.out[:0], '[')
	for i, text := range b.texts {
		if i > 0 {
			out = append(out, ',')
		}
		out = s.appendDocument(out, b, st, langs, stream, b.ids[i], text, false)
	}
	b.out = append(out, "]\n"...)
	writeJSONBytes(w, b.out)
}

// appendDocument is the per-document step of /batch and /stream: it
// counts text on stream, reset for it, and appends its Detection under
// id to out, with the counts when the server includes them. With spans
// the stream segments, and the Detection carries the document's spans.
func (s *Server) appendDocument(out []byte, b *buffers, st *endpointStats, langs *langTable, stream *core.Stream, id, text []byte, spans bool) []byte {
	stream.Reset()
	stream.Write(text)
	var tiling []core.Span
	if spans {
		tiling = stream.Finish()
		st.spans.Add(int64(len(tiling)))
	}
	var counts []int
	if s.cfg.IncludeCounts {
		b.counts = stream.AppendCounts(b.counts[:0])
		counts = b.counts
	}
	m := stream.Match()
	st.countUnknown(m)
	return langs.appendDetection(out, id, m, counts, tiling, "")
}

// maxPendingBytes bounds the /stream answers held back between reads.
const maxPendingBytes = 64 << 10

// handleStream reads NDJSON documents (one JSON string or {id, text}
// object per line) and writes one NDJSON Detection per line. The whole
// exchange uses bounded memory regardless of how many documents flow
// through: one pooled line buffer, one core.Stream reset at each
// document boundary — the software mirror of the hardware's
// End-of-Document marker in the DMA stream (§3.3). The stream keeps its
// request-start snapshot for its whole life, even across hot swaps.
// Each line is decoded where the line scanner holds it and its text
// counted without a copy; with ?spans=1 the stream is built to segment
// and every result line also carries the document's spans, encoded
// straight from the stream's. The stream's running totals are the
// document-level detection, so spans mode still extracts and hashes
// each n-gram exactly once. Result lines collect in a pooled buffer
// that the scanner's reader (streamBody) writes and flushes just
// before a read from the request body — the only point where the
// handler can block — when the bytes read so far end with '\n', and
// that goes out at the end (and, unflushed, early past
// maxPendingBytes). So a client that sends one whole line and waits
// gets each answer before it must send the next; a client that stops
// in the middle of a line gets no answers until that line is complete;
// and a body that arrives in several reads, each but the last ending
// inside a line, is answered in one write.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	snap := s.cur.Load()
	det := snap.det
	var seg *core.SegmentConfig
	if queryFlag(r, "spans") {
		seg = &s.cfg.Segment
	}
	stream, err := det.BorrowStream(seg)
	if err != nil {
		// Unreachable while New validates the configuration.
		jsonError(w, st, http.StatusInternalServerError, "segmentation misconfigured: "+err.Error())
		return
	}
	defer det.ReturnStream(stream)
	w.Header()["Content-Type"] = ndjsonContentType
	// Result lines go out while request lines are still coming in; for
	// HTTP/1 the server would otherwise cut off the request body at the
	// first flush.
	http.NewResponseController(w).EnableFullDuplex()
	b := getBuffers()
	defer b.release()
	body := b.scanLines(r.Body, w, s.cfg.MaxLineBytes)
	langs := snap.langs
	for b.lines.Scan() {
		line := b.lines.Bytes()
		if len(line) == 0 {
			continue
		}
		id, text, err := b.dec.line(line)
		if err != nil {
			body.out = langs.appendDetection(body.out, nil, core.Match{}, nil, nil, "bad document line: "+err.Error())
			body.out = append(body.out, '\n')
			continue
		}
		st.bytes.Add(int64(len(text)))
		st.docs.Add(1)
		body.out = s.appendDocument(body.out, b, st, langs, stream, id, text, seg != nil)
		body.out = append(body.out, '\n')
		if len(body.out) >= maxPendingBytes {
			// Many short lines read at once: bound the answers held back.
			w.Write(body.out)
			body.out = body.out[:0]
		}
	}
	if err := b.lines.Err(); err != nil {
		// Headers are long gone; report the failure in-band and stop.
		msg := err.Error()
		if errors.Is(err, bufio.ErrTooLong) {
			msg = fmt.Sprintf("document line exceeds %d bytes", s.cfg.MaxLineBytes)
		}
		body.out = langs.appendDetection(body.out, nil, core.Match{}, nil, nil, msg)
		body.out = append(body.out, '\n')
		// Discard the unread rest of the body now. Left to the server,
		// a full-duplex body drained to its end after the handler
		// returns starts a connection read that races the next
		// request's (a net/http panic).
		r.Body.Close()
	}
	if len(body.out) > 0 {
		w.Write(body.out)
	}
	b.out = body.out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	io.WriteString(w, "ok\n")
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	writeJSON(w, s.Stats())
}

// ProfilesStatus is the /admin/profiles payload.
type ProfilesStatus struct {
	// Serving is the version the server serves right now.
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
		jsonError(w, st, http.StatusInternalServerError, err.Error())
		return
	}
	active, err := s.reg.ActiveVersion()
	if err != nil && !errors.Is(err, registry.ErrNoActive) {
		jsonError(w, st, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, ProfilesStatus{
		Serving:  s.cur.Load().version,
		Active:   active,
		Versions: versions,
	})
}

func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request, st *endpointStats) {
	status, err := s.Reload()
	if err != nil {
		jsonError(w, st, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, status)
}

// queryFlag reports whether a boolean query parameter is set truthy
// ("1", "true", "t", ...). It reads the raw query the way url.Values
// would — the first well-formed name=value pair for name wins — without
// building the map.
func queryFlag(r *http.Request, name string) bool {
	for q := r.URL.RawQuery; q != ""; {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if strings.Contains(pair, ";") {
			continue // url.ParseQuery rejects the pair
		}
		k, v, _ := strings.Cut(pair, "=")
		if strings.ContainsAny(pair, "%+") {
			var err1, err2 error
			k, err1 = url.QueryUnescape(k)
			v, err2 = url.QueryUnescape(v)
			if err1 != nil || err2 != nil {
				continue
			}
		}
		if k == name {
			b, err := strconv.ParseBool(v)
			return err == nil && b
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// jsonContentType and ndjsonContentType are the Content-Type header
// values of the document endpoints and /stream, shared so setting them
// allocates nothing.
var (
	jsonContentType   = []string{"application/json"}
	ndjsonContentType = []string{"application/x-ndjson"}
)

// writeJSONBytes writes an encoded JSON response body in one Write, as
// json.Encoder does.
func writeJSONBytes(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.Write(body)
}

// readBody reads the request body, capped at MaxBodyBytes, into the
// pooled input buffer and returns it.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, b *buffers) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	buf := b.in[:0]
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes {
		// Room for the declared body and the read that reports its end;
		// a declaration is trusted only up to maxPooledBytes before the
		// bytes arrive.
		buf = slices.Grow(buf, int(min(n, maxPooledBytes))+1)
	}
	for {
		if len(buf) == cap(buf) {
			// Grow at least twofold: append's growth of large slices
			// (1.25x) would copy a 10 MiB body about five times over.
			buf = slices.Grow(buf, max(cap(buf), 512))
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			b.in = buf
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
	}
}

// errorBody is the JSON envelope every failed request is answered
// with.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// jsonError writes a JSON error response with the given status and
// counts it on the endpoint's error counter: every 4xx and 5xx answer
// goes through here.
func jsonError(w http.ResponseWriter, st *endpointStats, status int, msg string) {
	st.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg, Status: status})
}

// httpReadError maps body-read failures to statuses: the MaxBytesReader
// limit becomes 413, a tripped read deadline (Config.ReadTimeout)
// becomes 408, everything else 400.
func httpReadError(w http.ResponseWriter, st *endpointStats, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		jsonError(w, st, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	var netErr net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &netErr) && netErr.Timeout()) {
		jsonError(w, st, http.StatusRequestTimeout, "timed out reading request body")
		return
	}
	jsonError(w, st, http.StatusBadRequest, err.Error())
}
