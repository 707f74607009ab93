package serve_test

// Admin-plane tests: the registry-backed profile lifecycle exposed
// over HTTP — /admin/profiles, /admin/reload, the /statsz
// profile_version — and the zero-downtime guarantee under concurrent
// traffic while versions activate and roll back (run with -race).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bloomlang/internal/core"
	"bloomlang/internal/registry"
	"bloomlang/internal/serve"
	"bloomlang/internal/train"
)

// newTestRegistry builds a registry holding two versions of the
// fixture profiles (different TopT so the detectors are
// distinguishable), with v000001 active.
func newTestRegistry(t testing.TB) (*registry.Registry, []string) {
	t.Helper()
	corp, _ := fixtures(t)
	reg, err := registry.Open(filepath.Join(t.TempDir(), "registry"))
	if err != nil {
		t.Fatal(err)
	}
	var versions []string
	for _, topT := range []int{1500, 700} {
		tr, err := train.New(core.Config{TopT: topT})
		if err != nil {
			t.Fatal(err)
		}
		for _, lang := range testLangs {
			for _, doc := range corp.Train[lang] {
				if err := tr.Add(lang, doc.Text); err != nil {
					t.Fatal(err)
				}
			}
		}
		ps, stats, err := tr.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		m, err := reg.Create(ps, stats)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, m.Version)
	}
	if err := reg.Activate(versions[0]); err != nil {
		t.Fatal(err)
	}
	return reg, versions
}

func newRegistryServer(t testing.TB, cfg serve.Config) (*httptest.Server, *serve.Server, *registry.Registry, []string) {
	t.Helper()
	reg, versions := newTestRegistry(t)
	srv, err := serve.NewFromRegistry(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, reg, versions
}

func getJSON(t testing.TB, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func postReload(t testing.TB, ts *httptest.Server) serve.ReloadStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/admin/reload: %d %s", resp.StatusCode, body)
	}
	var status serve.ReloadStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	return status
}

// TestAdminAbsentWithoutRegistry: servers built straight from profiles
// have no admin plane at all.
func TestAdminAbsentWithoutRegistry(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	for _, path := range []string{"/admin/profiles", "/admin/reload"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s on registry-less server: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestAdminLifecycleOverHTTP walks the whole lifecycle through the
// admin plane: serve v1, activate v2 in the registry, observe
// serving/active divergence on /admin/profiles, reload, observe the
// swap on /statsz, and confirm a second reload is a no-op.
func TestAdminLifecycleOverHTTP(t *testing.T) {
	ts, _, reg, versions := newRegistryServer(t, serve.Config{})

	var snap serve.Snapshot
	getJSON(t, ts.URL+"/statsz", &snap)
	if snap.ProfileVersion != versions[0] {
		t.Fatalf("serving %q at startup, want %q", snap.ProfileVersion, versions[0])
	}

	// The registry moves ahead of the server until a reload.
	if err := reg.Activate(versions[1]); err != nil {
		t.Fatal(err)
	}
	var ps serve.ProfilesStatus
	getJSON(t, ts.URL+"/admin/profiles", &ps)
	if ps.Serving != versions[0] || ps.Active != versions[1] {
		t.Fatalf("profiles status serving=%q active=%q, want %q/%q", ps.Serving, ps.Active, versions[0], versions[1])
	}
	if len(ps.Versions) != 2 || ps.Versions[0].Version != versions[0] || ps.Versions[0].Checksum == "" {
		t.Fatalf("profiles status versions = %+v", ps.Versions)
	}

	status := postReload(t, ts)
	if !status.Changed || status.Previous != versions[0] || status.Active != versions[1] {
		t.Fatalf("reload status = %+v", status)
	}
	if len(status.Languages) != len(testLangs) {
		t.Fatalf("reload languages = %v", status.Languages)
	}
	getJSON(t, ts.URL+"/statsz", &snap)
	if snap.ProfileVersion != versions[1] {
		t.Fatalf("serving %q after reload, want %q", snap.ProfileVersion, versions[1])
	}
	if _, ok := snap.Endpoints["/admin/reload"]; !ok {
		t.Fatal("statsz has no /admin/reload counters")
	}

	// Reloading the already-active version changes nothing.
	status = postReload(t, ts)
	if status.Changed || status.Active != versions[1] {
		t.Fatalf("no-op reload status = %+v", status)
	}

	// Detection still works after the swap.
	corp, _ := fixtures(t)
	d := postDetect(t, ts, corp.Test["es"][0].Text)
	if d.Language != "es" {
		t.Fatalf("post-swap detection = %+v", d)
	}
}

// TestConcurrentHotSwapOverHTTP is the zero-downtime satellite: many
// clients hammer /detect, /batch and /stream while the lifecycle loop
// activates and rolls back versions and reloads the server. Every
// request must succeed with the right language, and every observed
// profile_version must be a known version — no request may see a torn
// or nil detector.
func TestConcurrentHotSwapOverHTTP(t *testing.T) {
	ts, _, reg, versions := newRegistryServer(t, serve.Config{Workers: 2})
	corp, _ := fixtures(t)
	known := map[string]bool{versions[0]: true, versions[1]: true}

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
			lang := testLangs[c%len(testLangs)]
			doc := corp.Test[lang][c%len(corp.Test[lang])].Text
			for !stop.Load() {
				// /detect
				d := struct{ Language string }{}
				resp, err := http.Post(ts.URL+"/detect", "text/plain", bytes.NewReader(doc))
				if err != nil {
					report(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					report(fmt.Errorf("/detect during swap: %d %s", resp.StatusCode, body))
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
					resp.Body.Close()
					report(err)
					return
				}
				resp.Body.Close()
				if d.Language != lang {
					report(fmt.Errorf("/detect got %q for a %q document", d.Language, lang))
					return
				}
				// /batch of 2
				body, _ := json.Marshal([]string{string(doc), string(doc)})
				resp, err = http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					report(err)
					return
				}
				var dets []serve.Detection
				err = json.NewDecoder(resp.Body).Decode(&dets)
				resp.Body.Close()
				if err != nil || len(dets) != 2 || dets[0].Language != lang {
					report(fmt.Errorf("/batch during swap: %v %+v", err, dets))
					return
				}
				// /stream of 1
				line, _ := json.Marshal(map[string]string{"text": string(doc)})
				resp, err = http.Post(ts.URL+"/stream", "application/x-ndjson", bytes.NewReader(append(line, '\n')))
				if err != nil {
					report(err)
					return
				}
				var sd serve.Detection
				err = json.NewDecoder(resp.Body).Decode(&sd)
				resp.Body.Close()
				if err != nil || sd.Language != lang {
					report(fmt.Errorf("/stream during swap: %v %+v", err, sd))
					return
				}
				// /statsz version sanity
				var snap serve.Snapshot
				resp, err = http.Get(ts.URL + "/statsz")
				if err != nil {
					report(err)
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&snap)
				resp.Body.Close()
				if err != nil {
					report(err)
					return
				}
				if !known[snap.ProfileVersion] {
					report(fmt.Errorf("observed unknown profile version %q", snap.ProfileVersion))
					return
				}
				requests.Add(3)
			}
		}(c)
	}

	// Lifecycle loop: flip between the two versions via activate and
	// rollback, reloading the server each time.
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

// TestErrorsAreJSON checks every failure path answers with the JSON
// error envelope carrying the matching status.
func TestErrorsAreJSON(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{MaxBodyBytes: 512, MaxBatchDocs: 2})
	cases := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"wrong method", func() (*http.Response, error) {
			return http.Get(ts.URL + "/detect")
		}, http.StatusMethodNotAllowed},
		{"oversized body", func() (*http.Response, error) {
			return http.Post(ts.URL+"/detect", "text/plain", bytes.NewReader(bytes.Repeat([]byte("x"), 4096)))
		}, http.StatusRequestEntityTooLarge},
		{"empty document", func() (*http.Response, error) {
			return http.Post(ts.URL+"/detect", "text/plain", strings.NewReader(""))
		}, http.StatusUnprocessableEntity},
		{"malformed batch", func() (*http.Response, error) {
			return http.Post(ts.URL+"/batch", "application/json", strings.NewReader("{nope"))
		}, http.StatusBadRequest},
		{"over-limit batch", func() (*http.Response, error) {
			body, _ := json.Marshal([]string{"a", "b", "c"})
			return http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
		}, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, err := c.do()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q, want application/json", c.name, ct)
		}
		var e struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s: error body %q is not JSON: %v", c.name, body, err)
			continue
		}
		if e.Status != c.status || e.Error == "" {
			t.Errorf("%s: error envelope %+v, want status %d", c.name, e, c.status)
		}
	}
}

// TestReadTimeoutAnswers408 runs the hardened HTTPServer with a short
// read timeout and stalls mid-body; the server must answer with the
// 408 JSON error rather than silently dropping the connection.
func TestReadTimeoutAnswers408(t *testing.T) {
	_, ps := fixtures(t)
	srv, err := serve.New(ps, serve.Config{ReadTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := srv.HTTPServer("127.0.0.1:0")
	ln, err := net.Listen("tcp", httpSrv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	t.Cleanup(func() { httpSrv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Promise 1000 body bytes, send 4, then stall past the deadline.
	fmt.Fprintf(conn, "POST /detect HTTP/1.1\r\nHost: test\r\nContent-Length: 1000\r\nContent-Type: text/plain\r\n\r\nabcd")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no response after read timeout: %v", err)
	}
	head := string(buf[:n])
	if !strings.Contains(head, "408") {
		t.Fatalf("stalled body response = %q, want 408", head)
	}
	if !strings.Contains(head, `"error"`) {
		t.Fatalf("408 response carries no JSON error body: %q", head)
	}
}
