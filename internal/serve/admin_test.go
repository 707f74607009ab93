package serve_test

// Admin-plane tests: the registry-backed profile lifecycle exposed
// over HTTP — /admin/profiles, /admin/reload, the /statsz
// profile_version — and the zero-downtime guarantee under concurrent
// traffic while versions activate and roll back (run with -race).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
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
	reg, err := registry.Open(filepath.Join(t.TempDir(), "registry"))
	if err != nil {
		t.Fatal(err)
	}
	versions := []string{createVersion(t, reg, 1500, testLangs), createVersion(t, reg, 700, testLangs)}
	if err := reg.Activate(versions[0]); err != nil {
		t.Fatal(err)
	}
	return reg, versions
}

// createVersion trains the fixture corpus's training documents of
// langs at the given profile size and stores the set as a new, inactive
// registry version.
func createVersion(t testing.TB, reg *registry.Registry, topT int, langs []string) string {
	t.Helper()
	corp, _ := fixtures(t)
	tr, err := train.New(core.Config{TopT: topT})
	if err != nil {
		t.Fatal(err)
	}
	for _, lang := range langs {
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
	return m.Version
}

func newRegistryServer(t testing.TB, cfg serve.Config) (*httptest.Server, *serve.Server, *registry.Registry, []string) {
	t.Helper()
	reg, versions := newTestRegistry(t)
	ts, srv := serveRegistry(t, reg, cfg)
	return ts, srv, reg, versions
}

// serveRegistry mounts a server on reg's active version.
func serveRegistry(t testing.TB, reg *registry.Registry, cfg serve.Config) (*httptest.Server, *serve.Server) {
	t.Helper()
	srv, err := serve.NewFromRegistry(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
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
// or nil detector. After the storm the server must serve the
// registry's active version, and its detector must still answer.
func TestConcurrentHotSwapOverHTTP(t *testing.T) {
	ts, srv, reg, versions := newRegistryServer(t, serve.Config{Workers: 2})
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
	active, err := reg.ActiveVersion()
	if err != nil {
		t.Fatal(err)
	}
	var snap serve.Snapshot
	getJSON(t, ts.URL+"/statsz", &snap)
	if snap.ProfileVersion != active {
		t.Errorf("serving %q after the swap storm, registry active %q", snap.ProfileVersion, active)
	}
	if m := srv.Detector().Detect(corp.Test["fi"][0].Text); m.Lang != "fi" {
		t.Errorf("detector after the swap storm got %q for a fi document", m.Lang)
	}
}

// TestLanguageTableFollowsSwap reloads between a version trained on the
// four fixture languages and one without Portuguese. The /detect counts
// keys, the /stream language names and the /statsz languages must
// follow each swap, and under concurrent swaps no single response may
// mix the two inventories: its counts keys name one inventory and
// every language it calls, document or span, is in that one.
func TestLanguageTableFollowsSwap(t *testing.T) {
	reg, err := registry.Open(filepath.Join(t.TempDir(), "registry"))
	if err != nil {
		t.Fatal(err)
	}
	four := slices.Sorted(slices.Values(testLangs))
	three := slices.DeleteFunc(slices.Clone(four), func(l string) bool { return l == "pt" })
	versions := []string{createVersion(t, reg, 1500, four), createVersion(t, reg, 1500, three)}
	if err := reg.Activate(versions[0]); err != nil {
		t.Fatal(err)
	}
	ts, _ := serveRegistry(t, reg, serve.Config{IncludeCounts: true})
	corp, _ := fixtures(t)
	doc := corp.Test["pt"][0].Text
	line, _ := json.Marshal(map[string]string{"text": string(doc)})
	line = append(line, '\n')

	// inventory checks that d's counts keys name one of the two
	// inventories and that d calls only languages of it, with their
	// names, and "" only for an unknown outcome; it returns that
	// inventory.
	inventory := func(d serve.Detection) ([]string, error) {
		keys := slices.Sorted(maps.Keys(d.Counts))
		var inv []string
		for _, cand := range [][]string{four, three} {
			if slices.Equal(keys, cand) {
				inv = cand
			}
		}
		if inv == nil {
			return nil, fmt.Errorf("counts keys %v name neither inventory", keys)
		}
		called := func(lang, name string, unknown bool) error {
			if (lang == "") != unknown {
				return fmt.Errorf("language %q with unknown %v", lang, unknown)
			}
			if lang != "" && !slices.Contains(inv, lang) {
				return fmt.Errorf("language %q outside the inventory %v of the counts", lang, inv)
			}
			if name != core.LanguageName(lang) {
				return fmt.Errorf("language %q named %q", lang, name)
			}
			return nil
		}
		if err := called(d.Language, d.Name, d.Unknown); err != nil {
			return nil, err
		}
		for _, sp := range d.Spans {
			if err := called(sp.Language, sp.Name, sp.Unknown); err != nil {
				return nil, fmt.Errorf("span %+v: %v", sp, err)
			}
		}
		if slices.Contains(inv, "pt") && d.Language != "pt" {
			return nil, fmt.Errorf("pt document called %q under %v", d.Language, inv)
		}
		return inv, nil
	}
	stream := func(c *http.Client) (serve.Detection, error) {
		var d serve.Detection
		resp, err := c.Post(ts.URL+"/stream?spans=1", "application/x-ndjson", bytes.NewReader(line))
		if err != nil {
			return d, err
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			return d, err
		}
		if len(d.Spans) == 0 {
			return d, errors.New("/stream?spans=1 answered without spans")
		}
		return d, nil
	}
	detect := func(c *http.Client) (serve.Detection, error) {
		var d serve.Detection
		resp, err := c.Post(ts.URL+"/detect", "text/plain", bytes.NewReader(doc))
		if err != nil {
			return d, err
		}
		defer resp.Body.Close()
		return d, json.NewDecoder(resp.Body).Decode(&d)
	}

	// One swap at a time: every endpoint follows it.
	for i, want := range [][]string{four, three, four} {
		if i > 0 {
			if err := reg.Activate(versions[i%2]); err != nil {
				t.Fatal(err)
			}
			if status := postReload(t, ts); !status.Changed || !slices.Equal(status.Languages, want) {
				t.Fatalf("reload %d: %+v, want languages %v", i, status, want)
			}
		}
		var snap serve.Snapshot
		getJSON(t, ts.URL+"/statsz", &snap)
		if !slices.Equal(snap.Languages, want) {
			t.Fatalf("swap %d: /statsz languages %v, want %v", i, snap.Languages, want)
		}
		for _, get := range []func(*http.Client) (serve.Detection, error){detect, stream} {
			d, err := get(http.DefaultClient)
			if err != nil {
				t.Fatal(err)
			}
			if inv, err := inventory(d); err != nil || !slices.Equal(inv, want) {
				t.Fatalf("swap %d: %+v has inventory %v (%v), want %v", i, d, inv, err, want)
			}
		}
	}

	// Concurrent swaps: each response is whole under one inventory.
	var stop atomic.Bool
	var requests atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(get func(*http.Client) (serve.Detection, error)) {
			defer wg.Done()
			for !stop.Load() {
				d, err := get(http.DefaultClient)
				if err == nil {
					if _, err = inventory(d); err == nil {
						requests.Add(1)
						continue
					}
				}
				select {
				case errs <- err:
				default:
				}
				return
			}
		}([]func(*http.Client) (serve.Detection, error){detect, stream}[c%2])
	}
	for i := 0; i < 20; i++ {
		if err := reg.Activate(versions[(i+1)%2]); err != nil {
			t.Fatal(err)
		}
		if status := postReload(t, ts); !status.Changed {
			t.Fatalf("concurrent swap %d did not change the detector: %+v", i, status)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if requests.Load() == 0 {
		t.Fatal("no client requests completed during the swaps")
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
