package serve

import (
	"sync/atomic"

	"bloomlang/internal/core"
)

// endpointStats holds one endpoint's counters. All fields are atomics:
// handlers on every connection update them concurrently and /statsz
// reads them without locks, mirroring how the classifier itself shares
// nothing mutable on the hot path.
type endpointStats struct {
	requests  atomic.Int64
	docs      atomic.Int64
	bytes     atomic.Int64
	errors    atomic.Int64
	unknown   atomic.Int64
	spans     atomic.Int64
	latencyNS atomic.Int64
}

// countUnknown counts m on the unknown counter when it is unknown.
func (e *endpointStats) countUnknown(m core.Match) {
	if m.Unknown {
		e.unknown.Add(1)
	}
}

func (e *endpointStats) snapshot() EndpointSnapshot {
	s := EndpointSnapshot{
		Requests: e.requests.Load(),
		Docs:     e.docs.Load(),
		Bytes:    e.bytes.Load(),
		Errors:   e.errors.Load(),
		Unknown:  e.unknown.Load(),
		Spans:    e.spans.Load(),
	}
	if s.Requests > 0 {
		s.AvgLatencyMicros = float64(e.latencyNS.Load()) / float64(s.Requests) / 1e3
	}
	return s
}

// EndpointSnapshot is one endpoint's counters at a point in time.
type EndpointSnapshot struct {
	// Requests is the number of requests handled, including failed ones.
	Requests int64 `json:"requests"`
	// Docs is the number of documents classified.
	Docs int64 `json:"docs"`
	// Bytes is the total document payload consumed.
	Bytes int64 `json:"bytes"`
	// Errors is the number of requests answered with a 4xx/5xx status.
	Errors int64 `json:"errors"`
	// Unknown is the number of documents answered with an unknown
	// (below-threshold) classification — counted separately so operators
	// can watch confidence drift without parsing responses.
	Unknown int64 `json:"unknown"`
	// Spans is the number of segmentation spans emitted (/segment, and
	// /stream in spans mode) — span volume per document is the
	// operator's view of how mixed the traffic is.
	Spans int64 `json:"spans,omitempty"`
	// AvgLatencyMicros is the mean request latency in microseconds.
	AvgLatencyMicros float64 `json:"avg_latency_micros"`
}

// Snapshot is the full /statsz payload: a consistent-enough view of
// the server's counters (each counter is individually atomic).
type Snapshot struct {
	// UptimeSeconds is the time since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Backend names the membership backend serving requests.
	Backend string `json:"backend"`
	// Workers is the detector pool size used by /batch.
	Workers int `json:"workers"`
	// MinMargin is the configured unknown-thresholding margin floor.
	MinMargin float64 `json:"min_margin"`
	// MinNGrams is the configured minimum n-grams for a known outcome.
	MinNGrams int `json:"min_ngrams"`
	// ProfileVersion is the registry version id currently serving, or
	// "" when the profiles did not come from a registry.
	ProfileVersion string `json:"profile_version,omitempty"`
	// Languages is the served language inventory.
	Languages []string `json:"languages"`
	// Endpoints maps endpoint path to its counters.
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
}
