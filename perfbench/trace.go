package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by benchmark code around a call
// into the program. Spans of one request share req; parent is the id
// of the span that caused this one, 0 for a root.
type span struct {
	id, parent int64
	req        int64
	name       string
	start, end int64 // nanoseconds since the tracer's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// Headers carry the client's request id and root span id to the
// benchmark's handler wrapper.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// tracer keeps spans in memory until the run ends. Client workers
// buffer their own spans and merge them once; the handler wrapper
// appends under the mutex.
type tracer struct {
	epoch  time.Time
	ids    atomic.Int64
	on     atomic.Bool
	limit  int
	mu     sync.Mutex
	spans  []span
	capped bool
}

func newTracer(limit int) *tracer { return &tracer{epoch: time.Now(), limit: limit} }

func (t *tracer) now() int64   { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add stores spans, dropping any beyond the memory limit.
func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if room := t.limit - len(t.spans); len(ss) > room {
		ss = ss[:max(room, 0)]
		t.capped = true
	}
	t.spans = append(t.spans, ss...)
}

// wrap records a serve.handler span around every request that carries
// the tracing headers while tracing is on.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, err1 := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, err2 := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		start := t.now()
		h.ServeHTTP(w, r)
		if err1 == nil && err2 == nil {
			t.add(span{id: t.newID(), parent: parent, req: req, name: "serve.handler", start: start, end: t.now()})
		}
	})
}

// write saves the spans as tab-separated lines: id, parent, request,
// name, start ns, end ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children count
// once, and children are clipped to the parent's interval.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, p := range spans {
		self[p.id] = p.dur() - covered(p, children[p.id])
	}
	return self
}

// covered returns the length of the union of the children's intervals
// inside the parent's.
func covered(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, p.start), min(k.end, p.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
