package serve_test

// Integration tests for the serving subsystem: a classifier trained on
// a small synthetic corpus, persisted and reloaded through the profile
// serialization path (the restart a production daemon takes), mounted
// under httptest, and exercised over real HTTP — including concurrent
// clients, so `go test -race` sweeps the whole serving data path.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bloomlang/internal/core"
	"bloomlang/internal/corpus"
	"bloomlang/internal/ngram"
	"bloomlang/internal/serve"
	"bloomlang/internal/train"
)

// testLangs are the languages the fixture trains; tests classify
// documents from all four.
var testLangs = []string{"en", "es", "fi", "pt"}

var (
	fixOnce   sync.Once
	fixCorpus *corpus.Corpus
	fixSet    *core.ProfileSet
	fixErr    error
)

// fixtures trains once per test binary, then saves and reloads the
// profiles so every test runs against deserialized state.
func fixtures(t testing.TB) (*corpus.Corpus, *core.ProfileSet) {
	t.Helper()
	fixOnce.Do(func() {
		corp, err := corpus.Generate(corpus.Config{
			Languages:       testLangs,
			DocsPerLanguage: 30,
			WordsPerDoc:     150,
			TrainFraction:   0.3,
			Seed:            11,
		})
		if err != nil {
			fixErr = err
			return
		}
		trained, err := core.TrainFromTexts(core.Config{TopT: 1500}, corp.TrainTextsByLanguage())
		if err != nil {
			fixErr = err
			return
		}
		path := filepath.Join(t.TempDir(), "profiles.bin")
		if err := trained.SaveFile(path); err != nil {
			fixErr = err
			return
		}
		fixCorpus = corp
		fixSet, fixErr = core.LoadProfileSetFile(path)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixCorpus, fixSet
}

func newTestServer(t testing.TB, cfg serve.Config) (*httptest.Server, *corpus.Corpus) {
	t.Helper()
	corp, ps := fixtures(t)
	srv, err := serve.New(ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, corp
}

func postDetect(t testing.TB, ts *httptest.Server, doc []byte) serve.Detection {
	t.Helper()
	resp, err := http.Post(ts.URL+"/detect", "text/plain", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/detect status %d: %s", resp.StatusCode, body)
	}
	var d serve.Detection
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDetectAcrossLanguages is the acceptance path: documents in four
// languages, each classified correctly via /detect against profiles
// that went through a save/reload round-trip.
func TestDetectAcrossLanguages(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{})
	for _, lang := range testLangs {
		doc := corp.Test[lang][0].Text
		d := postDetect(t, ts, doc)
		if d.Language != lang {
			t.Errorf("%s document detected as %q", lang, d.Language)
		}
		if d.NGrams == 0 || d.Counts == nil {
			t.Errorf("%s: degenerate detection %+v", lang, d)
		}
		if d.Name != core.LanguageName(lang) {
			t.Errorf("%s: name %q, want %q", lang, d.Name, core.LanguageName(lang))
		}
	}
}

// TestDetectMatchesLegacyPath pins the /detect wire format: over every
// test document the response bytes equal the encoding of Detect's match
// with DetectCounts' raw counts. It also pins the zero-value Config to
// the exact backend.
func TestDetectMatchesLegacyPath(t *testing.T) {
	corp, ps := fixtures(t)
	srv, err := serve.New(ps, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Backend; got != "direct-lookup" {
		t.Errorf("zero-value Config serves %q, want direct-lookup", got)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	det := srv.Detector()
	for _, lang := range testLangs {
		for i, doc := range corp.Test[lang] {
			res, m := det.DetectCounts(nil, doc.Text)
			if m != det.Detect(doc.Text) {
				t.Fatalf("%s doc %d: DetectCounts match %+v, Detect %+v", lang, i, m, det.Detect(doc.Text))
			}
			want := serve.Detection{
				Language: m.Lang,
				Name:     core.LanguageName(m.Lang),
				NGrams:   m.NGrams,
				Count:    m.Count,
				Score:    m.Score,
				Margin:   m.Margin,
				Unknown:  m.Unknown,
				Counts:   map[string]int{},
			}
			for j, l := range det.Languages() {
				want.Counts[l] = res[j]
			}
			var wantBody bytes.Buffer
			if err := json.NewEncoder(&wantBody).Encode(want); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/detect", "text/plain", bytes.NewReader(doc.Text))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, wantBody.Bytes()) {
				t.Errorf("%s doc %d: /detect answered\n%s\nlegacy path encodes\n%s", lang, i, body, wantBody.Bytes())
			}
		}
	}
}

// TestNewRejectsNonFiniteMinMargin: a NaN margin floor compares false
// against every margin, silently disabling unknown thresholding, and
// an infinite one is meaningless, so construction refuses both.
func TestNewRejectsNonFiniteMinMargin(t *testing.T) {
	_, ps := fixtures(t)
	for _, tc := range []struct {
		margin float64
		ok     bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{0, true},
		{0.05, true},
		{-0.5, true}, // clamped to 0, as core.WithMinMargin does
	} {
		cfg := serve.Config{MinMargin: tc.margin}
		_, err := serve.New(ps, cfg)
		if (err == nil) != tc.ok {
			t.Errorf("New(MinMargin %v) err = %v, want ok=%v", tc.margin, err, tc.ok)
		}
		if (cfg.Validate() == nil) != tc.ok {
			t.Errorf("Validate(MinMargin %v) disagrees with New", tc.margin)
		}
	}
}

func TestBatchPreservesOrderAcrossLanguages(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{})
	type reqDoc struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}
	var docs []reqDoc
	var wantLangs []string
	// Interleave languages so order mistakes cannot hide.
	for i := 0; i < 3; i++ {
		for _, lang := range testLangs {
			docs = append(docs, reqDoc{
				ID:   fmt.Sprintf("%s-%d", lang, i),
				Text: string(corp.Test[lang][i].Text),
			})
			wantLangs = append(wantLangs, lang)
		}
	}
	body, _ := json.Marshal(docs)
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dets []serve.Detection
	if err := json.NewDecoder(resp.Body).Decode(&dets); err != nil {
		t.Fatal(err)
	}
	if len(dets) != len(docs) {
		t.Fatalf("got %d detections for %d documents", len(dets), len(docs))
	}
	for i, d := range dets {
		if d.ID != docs[i].ID {
			t.Errorf("position %d: id %q, want %q (order not preserved)", i, d.ID, docs[i].ID)
		}
		if d.Language != wantLangs[i] {
			t.Errorf("position %d: language %q, want %q", i, d.Language, wantLangs[i])
		}
	}
}

func TestBatchAcceptsBareStrings(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{})
	body, _ := json.Marshal([]string{
		string(corp.Test["es"][0].Text),
		string(corp.Test["fi"][0].Text),
	})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dets []serve.Detection
	if err := json.NewDecoder(resp.Body).Decode(&dets); err != nil {
		t.Fatal(err)
	}
	if len(dets) != 2 || dets[0].Language != "es" || dets[1].Language != "fi" {
		t.Errorf("bare-string batch = %+v", dets)
	}
}

func TestStreamNDJSONRoundTrip(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{})
	var in bytes.Buffer
	var wantIDs, wantLangs []string
	for i := 0; i < 2; i++ {
		for _, lang := range testLangs {
			id := fmt.Sprintf("%s-%d", lang, i)
			line, _ := json.Marshal(map[string]string{
				"id": id, "text": string(corp.Test[lang][i].Text),
			})
			in.Write(line)
			in.WriteByte('\n')
			wantIDs = append(wantIDs, id)
			wantLangs = append(wantLangs, lang)
		}
		// Blank lines between documents are tolerated.
		in.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/stream", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var got []serve.Detection
	for sc.Scan() {
		var d serve.Detection
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		got = append(got, d)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(wantIDs) {
		t.Fatalf("got %d result lines for %d documents", len(got), len(wantIDs))
	}
	for i, d := range got {
		if d.ID != wantIDs[i] || d.Language != wantLangs[i] || d.Error != "" {
			t.Errorf("line %d: %+v, want id %q lang %q", i, d, wantIDs[i], wantLangs[i])
		}
	}
}

func TestStreamReportsBadLinesInBand(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{})
	goodLine, _ := json.Marshal(map[string]string{
		"id": "good", "text": string(corp.Test["en"][0].Text),
	})
	in := "this is not json\n" + string(goodLine) + "\n"
	resp, err := http.Post(ts.URL+"/stream", "application/x-ndjson", strings.NewReader(in))
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
	if len(got) != 2 {
		t.Fatalf("got %d lines, want 2: %+v", len(got), got)
	}
	if got[0].Error == "" {
		t.Error("malformed line produced no in-band error")
	}
	if got[1].ID != "good" || got[1].Language != "en" {
		t.Errorf("stream did not recover after bad line: %+v", got[1])
	}
}

func TestStreamLineTooLong(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{MaxLineBytes: 256})
	line, _ := json.Marshal(map[string]string{"text": strings.Repeat("abcdefg ", 200)})
	resp, err := http.Post(ts.URL+"/stream", "application/x-ndjson", bytes.NewReader(append(line, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d serve.Detection
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.Error, "exceeds 256 bytes") {
		t.Errorf("oversized line error = %+v", d)
	}
}

func TestOversizedBodies(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{MaxBodyBytes: 1024})
	big := bytes.Repeat([]byte("word "), 1024)
	for _, path := range []string{"/detect", "/batch"} {
		resp, err := http.Post(ts.URL+path, "text/plain", bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: status %d, want 413", path, resp.StatusCode)
		}
	}
}

func TestWrongMethods(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	cases := []struct{ method, path string }{
		{http.MethodGet, "/detect"},
		{http.MethodGet, "/batch"},
		{http.MethodGet, "/stream"},
		{http.MethodPost, "/healthz"},
		{http.MethodPost, "/statsz"},
		{http.MethodDelete, "/detect"},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader("x"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow == "" {
			t.Errorf("%s %s: no Allow header", c.method, c.path)
		}
	}
}

func TestBatchErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{MaxBatchDocs: 4})
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed batch: status %d, want 400", resp.StatusCode)
	}
	// Too many documents.
	body, _ := json.Marshal(make([]string, 5))
	resp, err = http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over-limit batch: status %d, want 413", resp.StatusCode)
	}
}

func TestDetectUnclassifiable(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	resp, err := http.Post(ts.URL+"/detect", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("empty document: status %d, want 422", resp.StatusCode)
	}
}

// TestDetectReportsConfidenceFields checks /detect carries the new
// score/margin/count fields alongside the language call.
func TestDetectReportsConfidenceFields(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{})
	d := postDetect(t, ts, corp.Test["es"][0].Text)
	if d.Language != "es" || d.Unknown {
		t.Fatalf("detection = %+v", d)
	}
	if d.Count <= 0 || d.Count > d.NGrams {
		t.Errorf("count %d outside (0, %d]", d.Count, d.NGrams)
	}
	if d.Score <= 0 || d.Score > 1 {
		t.Errorf("score %v outside (0,1]", d.Score)
	}
	if d.Margin < 0 || d.Margin > 1 {
		t.Errorf("margin %v outside [0,1]", d.Margin)
	}
	if got := float64(d.Count) / float64(d.NGrams); d.Score != got {
		t.Errorf("score %v != count/ngrams %v", d.Score, got)
	}
}

// TestUnknownThresholding runs a server with an unattainable margin
// floor: every document comes back unknown with language "", and the
// unknown counters on /statsz tick separately per endpoint.
func TestUnknownThresholding(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{MinMargin: 0.99})
	doc := corp.Test["en"][0].Text

	d := postDetect(t, ts, doc)
	if !d.Unknown || d.Language != "" {
		t.Errorf("/detect below margin floor = %+v, want unknown", d)
	}
	if d.NGrams == 0 || d.Score <= 0 {
		t.Errorf("unknown detection lost its diagnostics: %+v", d)
	}

	body, _ := json.Marshal([]string{string(doc), string(doc)})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var dets []serve.Detection
	err = json.NewDecoder(resp.Body).Decode(&dets)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for i, bd := range dets {
		if !bd.Unknown || bd.Language != "" {
			t.Errorf("/batch doc %d = %+v, want unknown", i, bd)
		}
	}

	line, _ := json.Marshal(map[string]string{"text": string(doc)})
	resp, err = http.Post(ts.URL+"/stream", "application/x-ndjson", bytes.NewReader(append(line, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	var sd serve.Detection
	err = json.NewDecoder(resp.Body).Decode(&sd)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !sd.Unknown || sd.Language != "" {
		t.Errorf("/stream = %+v, want unknown", sd)
	}

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap serve.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.MinMargin != 0.99 || snap.MinNGrams != 1 {
		t.Errorf("statsz thresholds = %v/%d, want 0.99/1", snap.MinMargin, snap.MinNGrams)
	}
	if got := snap.Endpoints["/detect"].Unknown; got != 1 {
		t.Errorf("detect unknown = %d, want 1", got)
	}
	if got := snap.Endpoints["/batch"].Unknown; got != 2 {
		t.Errorf("batch unknown = %d, want 2", got)
	}
	if got := snap.Endpoints["/stream"].Unknown; got != 1 {
		t.Errorf("stream unknown = %d, want 1", got)
	}
}

// TestConfidentTrafficCountsNoUnknowns is the counter's negative case.
func TestConfidentTrafficCountsNoUnknowns(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{})
	postDetect(t, ts, corp.Test["fi"][0].Text)
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap serve.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Endpoints["/detect"].Unknown; got != 0 {
		t.Errorf("detect unknown = %d, want 0", got)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
}

// TestConcurrentClients hammers /detect, /batch and /stream from many
// goroutines at once — the scenario the race detector needs to see —
// then checks the /statsz counters add up exactly.
func TestConcurrentClients(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{})
	const clients = 8
	const perClient = 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*3)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lang := testLangs[c%len(testLangs)]
			doc := corp.Test[lang][c%len(corp.Test[lang])].Text
			for i := 0; i < perClient; i++ {
				// /detect
				resp, err := http.Post(ts.URL+"/detect", "text/plain", bytes.NewReader(doc))
				if err != nil {
					errs <- err
					return
				}
				var d serve.Detection
				err = json.NewDecoder(resp.Body).Decode(&d)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if d.Language != lang {
					errs <- fmt.Errorf("client %d: detect %q, want %q", c, d.Language, lang)
					return
				}
				// /batch of 2
				body, _ := json.Marshal([]string{string(doc), string(doc)})
				resp, err = http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var dets []serve.Detection
				err = json.NewDecoder(resp.Body).Decode(&dets)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if len(dets) != 2 || dets[0].Language != lang || dets[1].Language != lang {
					errs <- fmt.Errorf("client %d: batch %+v", c, dets)
					return
				}
				// /stream of 1
				line, _ := json.Marshal(map[string]string{"text": string(doc)})
				resp, err = http.Post(ts.URL+"/stream", "application/x-ndjson", bytes.NewReader(append(line, '\n')))
				if err != nil {
					errs <- err
					return
				}
				var sd serve.Detection
				err = json.NewDecoder(resp.Body).Decode(&sd)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if sd.Language != lang {
					errs <- fmt.Errorf("client %d: stream %q, want %q", c, sd.Language, lang)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap serve.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(clients * perClient)
	if got := snap.Endpoints["/detect"].Docs; got != want {
		t.Errorf("detect docs = %d, want %d", got, want)
	}
	if got := snap.Endpoints["/batch"].Docs; got != 2*want {
		t.Errorf("batch docs = %d, want %d", got, 2*want)
	}
	if got := snap.Endpoints["/stream"].Docs; got != want {
		t.Errorf("stream docs = %d, want %d", got, want)
	}
	if snap.Endpoints["/detect"].Bytes == 0 || snap.Endpoints["/detect"].AvgLatencyMicros <= 0 {
		t.Errorf("degenerate detect stats: %+v", snap.Endpoints["/detect"])
	}
	if len(snap.Languages) != len(testLangs) {
		t.Errorf("statsz languages = %v", snap.Languages)
	}
}

// TestStatszCountsErrors checks failed requests land in the error
// counters.
func TestStatszCountsErrors(t *testing.T) {
	ts, _ := newTestServer(t, serve.Config{})
	resp, err := http.Get(ts.URL + "/detect") // wrong method
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/detect", "text/plain", strings.NewReader("")) // 422
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var snap serve.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Endpoints["/detect"].Errors; got != 2 {
		t.Errorf("detect errors = %d, want 2", got)
	}
	if got := snap.Endpoints["/detect"].Requests; got != 2 {
		t.Errorf("detect requests = %d, want 2", got)
	}
}

// TestSixGramsServeExactly pins n = 6 serving on core's exact kernel:
// a server over a 6-gram profile set names direct-lookup on /statsz,
// and the counts /detect, /batch and /stream report equal a map-based
// reference (one Go set per language over the documents' extracted
// 6-grams) bit for bit. A registry server serving an n = 4 version and
// reloaded onto the 6-gram one answers the same.
func TestSixGramsServeExactly(t *testing.T) {
	corp, _ := fixtures(t)
	tr, err := train.New(core.Config{N: 6, TopT: 1500})
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
	ps6, stats, err := tr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// The documents as the JSON paths decode them, so every path counts
	// the same bytes.
	var docs []string
	for _, lang := range testLangs {
		for _, doc := range corp.Test[lang][:3] {
			docs = append(docs, strings.ToValidUTF8(string(doc.Text), "\uFFFD"))
		}
	}
	sets := make([]map[uint32]bool, len(ps6.Profiles))
	for l, p := range ps6.Profiles {
		sets[l] = make(map[uint32]bool, len(p.Grams))
		for _, g := range p.Grams {
			sets[l][g] = true
		}
	}
	want := make([]map[string]int, len(docs))
	for i, doc := range docs {
		gs, err := ngram.ExtractBytes([]byte(doc), 6)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = make(map[string]int)
		for l, p := range ps6.Profiles {
			n := 0
			for _, g := range gs {
				if sets[l][g] {
					n++
				}
			}
			want[i][p.Language] = n
		}
	}
	check := func(t *testing.T, ts *httptest.Server) {
		t.Helper()
		var snap serve.Snapshot
		getJSON(t, ts.URL+"/statsz", &snap)
		if snap.Backend != "direct-lookup" {
			t.Errorf("n=6 statsz backend = %q, want direct-lookup", snap.Backend)
		}
		for i, doc := range docs {
			if got := postDetect(t, ts, []byte(doc)).Counts; !reflect.DeepEqual(got, want[i]) {
				t.Errorf("/detect doc %d: counts %v, reference %v", i, got, want[i])
			}
		}
		checkJSONPaths(t, ts, docs, want)
	}

	srv, err := serve.New(ps6, serve.Config{IncludeCounts: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	check(t, ts)

	regTS, regSrv, reg, _ := newRegistryServer(t, serve.Config{IncludeCounts: true})
	if got := regSrv.Stats().Backend; got != "direct-lookup" {
		t.Fatalf("n=4 registry server backend = %q, want direct-lookup", got)
	}
	m, err := reg.Create(ps6, stats)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Activate(m.Version); err != nil {
		t.Fatal(err)
	}
	if _, err := regSrv.Reload(); err != nil {
		t.Fatal(err)
	}
	if n := regSrv.Detector().Config().N; n != 6 {
		t.Fatalf("after the reload the server counts %d-grams, want 6", n)
	}
	check(t, regTS)
}
