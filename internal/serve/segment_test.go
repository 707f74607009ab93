package serve_test

// Integration tests for the /segment endpoint and the /stream spans
// mode: mixed-language documents over real HTTP, concurrent clients
// across profile hot swaps (run with -race), the JSON error envelope
// on oversized input, and the /statsz segment counters.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bloomlang/internal/core"
	"bloomlang/internal/serve"
)

func postSegment(t testing.TB, ts *httptest.Server, doc []byte) serve.Segmentation {
	t.Helper()
	resp, err := http.Post(ts.URL+"/segment", "text/plain", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/segment status %d", resp.StatusCode)
	}
	var seg serve.Segmentation
	if err := json.NewDecoder(resp.Body).Decode(&seg); err != nil {
		t.Fatal(err)
	}
	return seg
}

// checkSpansTile asserts the wire-level structural guarantee clients
// rely on: spans tile [0, bytes) in order.
func checkSpansTile(t testing.TB, spans []serve.SpanDetection, docLen int) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatalf("no spans for %d bytes", docLen)
	}
	if spans[0].Start != 0 || spans[len(spans)-1].End != docLen {
		t.Fatalf("spans do not cover [0,%d): %+v", docLen, spans)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start != spans[i-1].End {
			t.Fatalf("span %d leaves a gap or overlap: %+v", i, spans)
		}
	}
}

// TestSegmentEndpoint is the acceptance path: a two-language
// concatenation posted to /segment comes back as spans in reading
// order, labelled with both languages, tiling the document.
func TestSegmentEndpoint(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{})
	a, b := corp.Test["en"][0].Text, corp.Test["fi"][0].Text
	doc := append(append([]byte{}, a...), b...)
	seg := postSegment(t, ts, doc)
	if seg.Bytes != len(doc) {
		t.Fatalf("segmentation bytes = %d, want %d", seg.Bytes, len(doc))
	}
	if seg.Window <= 0 || seg.Stride <= 0 {
		t.Fatalf("segmentation geometry missing: %+v", seg)
	}
	checkSpansTile(t, seg.Spans, len(doc))
	langs := map[string]bool{}
	for _, sp := range seg.Spans {
		langs[sp.Language] = true
	}
	if !langs["en"] || !langs["fi"] {
		t.Errorf("segmentation found languages %v, want en and fi: %+v", langs, seg.Spans)
	}
	if first := seg.Spans[0]; first.Language != "en" || first.Name != "English" {
		t.Errorf("first span = %+v, want English", first)
	}
}

// TestSegmentSingleLanguage: plain single-language traffic comes back
// as one whole-document span. The languages exercised are en and fi —
// the fixture also trains the es↔pt sibling pair, whose "pure"
// synthetic documents genuinely borrow each other's words and may
// legitimately segment.
func TestSegmentSingleLanguage(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{})
	for _, lang := range []string{"en", "fi"} {
		doc := corp.Test[lang][0].Text
		seg := postSegment(t, ts, doc)
		checkSpansTile(t, seg.Spans, len(doc))
		if len(seg.Spans) != 1 || seg.Spans[0].Language != lang {
			t.Errorf("single-language segmentation = %+v, want one %s span", seg.Spans, lang)
		}
	}
}

// TestSegmentConfiguredGeometry: a custom window/stride flows from the
// server config to the response echo.
func TestSegmentConfiguredGeometry(t *testing.T) {
	_, ps := fixtures(t)
	srv, err := serve.New(ps, serve.Config{Segment: core.SegmentConfig{Window: 128, Stride: 32}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	corp, _ := fixtures(t)
	seg := postSegment(t, ts, corp.Test["en"][0].Text)
	if seg.Window != 128 || seg.Stride != 32 {
		t.Errorf("geometry echo = %d/%d, want 128/32", seg.Window, seg.Stride)
	}
	// Invalid geometry fails server construction, not request time.
	if _, err := serve.New(ps, serve.Config{Segment: core.SegmentConfig{Window: 64, Stride: 24}}); err == nil {
		t.Error("server accepted a stride that does not divide the window")
	}
}

// TestSegmentErrorEnvelope: oversized, empty, and wrong-method
// requests answer with the JSON error envelope and the right status.
func TestSegmentErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{MaxBodyBytes: 512})
	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"oversized body", func() (*http.Response, error) {
			return http.Post(ts.URL+"/segment", "text/plain", bytes.NewReader(bytes.Repeat([]byte("x"), 4096)))
		}, http.StatusRequestEntityTooLarge},
		{"empty document", func() (*http.Response, error) {
			return http.Post(ts.URL+"/segment", "text/plain", strings.NewReader(""))
		}, http.StatusUnprocessableEntity},
		{"wrong method", func() (*http.Response, error) {
			return http.Get(ts.URL + "/segment")
		}, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		resp, err := c.do()
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
		if decodeErr != nil || e.Status != c.status || e.Error == "" {
			t.Errorf("%s: error envelope %+v (%v)", c.name, e, decodeErr)
		}
	}
}

// TestStreamSpansMode: /stream?spans=1 attaches each document's span
// tiling to its NDJSON result line; without the flag no spans appear.
// Lengths are asserted self-consistently rather than against the
// original bytes: NDJSON transport re-encodes non-UTF-8 ISO-8859-1
// bytes, so the server legitimately sees a longer document.
func TestStreamSpansMode(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{})
	mixed := string(corp.Test["en"][0].Text) + string(corp.Test["fi"][0].Text)
	var in bytes.Buffer
	for _, doc := range []string{string(corp.Test["en"][1].Text), mixed} {
		line, _ := json.Marshal(map[string]string{"text": doc})
		in.Write(line)
		in.WriteByte('\n')
	}
	body := in.Bytes()

	resp, err := http.Post(ts.URL+"/stream?spans=1", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var got []serve.Detection
	for sc.Scan() {
		var d serve.Detection
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatal(err)
		}
		got = append(got, d)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d lines, want 2", len(got))
	}
	if len(got[0].Spans) != 1 || got[0].Spans[0].Language != "en" {
		t.Errorf("single-language line spans = %+v", got[0].Spans)
	}
	spans := got[1].Spans
	if len(spans) < 2 {
		t.Errorf("mixed line spans = %+v, want at least 2", spans)
	}
	checkSpansTile(t, spans, spans[len(spans)-1].End)
	if spans[0].Language != "en" || spans[len(spans)-1].Language != "fi" {
		t.Errorf("mixed line languages %q..%q, want en..fi", spans[0].Language, spans[len(spans)-1].Language)
	}

	// Without the flag, result lines carry no spans.
	resp, err = http.Post(ts.URL+"/stream", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc = bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var d serve.Detection
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatal(err)
		}
		if d.Spans != nil {
			t.Errorf("spans present without ?spans=1: %+v", d.Spans)
		}
	}
}

// TestStatszSegmentCounters: /segment traffic ticks its own endpoint
// counters, spans included.
func TestStatszSegmentCounters(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{})
	doc := append(append([]byte{}, corp.Test["en"][0].Text...), corp.Test["fi"][0].Text...)
	seg1 := postSegment(t, ts, doc)
	seg2 := postSegment(t, ts, corp.Test["en"][1].Text)
	resp, err := http.Post(ts.URL+"/segment", "text/plain", strings.NewReader("")) // 422
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var snap serve.Snapshot
	getJSON(t, ts.URL+"/statsz", &snap)
	st, ok := snap.Endpoints["/segment"]
	if !ok {
		t.Fatal("statsz has no /segment counters")
	}
	if st.Requests != 3 || st.Docs != 2 || st.Errors != 1 {
		t.Errorf("segment counters = %+v, want 3 requests, 2 docs, 1 error", st)
	}
	if wantSpans := int64(len(seg1.Spans) + len(seg2.Spans)); st.Spans != wantSpans {
		t.Errorf("segment spans counter = %d, want %d", st.Spans, wantSpans)
	}
	if st.Bytes == 0 {
		t.Error("segment bytes counter did not move")
	}
}

// TestSegmentConcurrentAcrossHotSwap is the race satellite: clients
// hammer /segment (and /stream?spans=1) while the registry activates
// and rolls back versions and the server reloads. Every response must
// be a well-formed tiling with the right languages; no request may
// observe a torn detector.
func TestSegmentConcurrentAcrossHotSwap(t *testing.T) {
	ts, _, reg, versions := newRegistryServer(t, serve.Config{})
	corp, _ := fixtures(t)
	mixedDoc := append(append([]byte{}, corp.Test["en"][0].Text...), corp.Test["fi"][0].Text...)

	var stop atomic.Bool
	var requests atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Pure-traffic single-span assertions use en and fi only: the
			// fixture trains the es↔pt sibling pair, whose documents may
			// legitimately segment.
			lang := []string{"en", "fi"}[c%2]
			pure := corp.Test[lang][c%len(corp.Test[lang])].Text
			for !stop.Load() {
				// /segment on single-language traffic.
				resp, err := http.Post(ts.URL+"/segment", "text/plain", bytes.NewReader(pure))
				if err != nil {
					report(err)
					return
				}
				var seg serve.Segmentation
				err = json.NewDecoder(resp.Body).Decode(&seg)
				resp.Body.Close()
				if err != nil {
					report(err)
					return
				}
				if len(seg.Spans) != 1 || seg.Spans[0].Language != lang {
					report(fmt.Errorf("client %d: segment during swap = %+v, want one %s span", c, seg.Spans, lang))
					return
				}
				// /segment on mixed traffic: structural checks only (the
				// exact boundary may shift between profile versions).
				resp, err = http.Post(ts.URL+"/segment", "text/plain", bytes.NewReader(mixedDoc))
				if err != nil {
					report(err)
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&seg)
				resp.Body.Close()
				if err != nil {
					report(err)
					return
				}
				if seg.Bytes != len(mixedDoc) || len(seg.Spans) == 0 ||
					seg.Spans[0].Start != 0 || seg.Spans[len(seg.Spans)-1].End != len(mixedDoc) {
					report(fmt.Errorf("client %d: mixed segmentation does not tile: %+v", c, seg))
					return
				}
				// /stream?spans=1 of one document.
				line, _ := json.Marshal(map[string]string{"text": string(pure)})
				resp, err = http.Post(ts.URL+"/stream?spans=1", "application/x-ndjson", bytes.NewReader(append(line, '\n')))
				if err != nil {
					report(err)
					return
				}
				var d serve.Detection
				err = json.NewDecoder(resp.Body).Decode(&d)
				resp.Body.Close()
				if err != nil || d.Language != lang || len(d.Spans) == 0 {
					report(fmt.Errorf("client %d: stream spans during swap: %v %+v", c, err, d))
					return
				}
				requests.Add(3)
			}
		}(c)
	}

	for i := 0; i < 25; i++ {
		if i%2 == 0 {
			if err := reg.Activate(versions[1]); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := reg.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		status := postReload(t, ts)
		if !status.Changed {
			t.Fatalf("swap %d did not change the detector: %+v", i, status)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if requests.Load() == 0 {
		t.Fatal("no client requests completed during the swap storm")
	}
}
