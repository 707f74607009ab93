package serve_test

// Tests of the document endpoints' wire codec over the handler: the
// responses are byte-identical to encoding/json's encoding of the same
// values, /stream answers an interactive client line by line, and a
// /stream line costs no allocation.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bloomlang/internal/core"
	"bloomlang/internal/serve"
)

// latin1ToUTF8 re-encodes an ISO-8859-1 fixture document as the UTF-8
// a JSON client sends.
func latin1ToUTF8(b []byte) string {
	var sb strings.Builder
	for _, c := range b {
		sb.WriteRune(rune(c))
	}
	return sb.String()
}

// refDoc is encoding/json's reading of one request document.
type refDoc struct{ ID, Text string }

func (d *refDoc) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		return json.Unmarshal(data, &d.Text)
	}
	var obj struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}
	err := json.Unmarshal(data, &obj)
	d.ID, d.Text = obj.ID, obj.Text
	return err
}

// encodeJSON is the reference encoding: json.Encoder's bytes for v.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantDetection builds the reference Detection of one document from
// core directly.
func wantDetection(det *core.Detector, id string, text []byte, withCounts bool, seg *core.SegmentConfig) serve.Detection {
	counts, m := det.DetectCounts(nil, text)
	d := serve.Detection{
		ID: id, Language: m.Lang, Name: core.LanguageName(m.Lang),
		NGrams: m.NGrams, Count: m.Count, Score: m.Score, Margin: m.Margin, Unknown: m.Unknown,
	}
	if withCounts {
		d.Counts = map[string]int{}
		for i, l := range det.Languages() {
			d.Counts[l] = counts[i]
		}
	}
	if seg != nil {
		spans, _ := det.DetectSpans(text, *seg)
		d.Spans = spanDetections(spans)
	}
	return d
}

func spanDetections(spans []core.Span) []serve.SpanDetection {
	var out []serve.SpanDetection
	for _, sp := range spans {
		out = append(out, serve.SpanDetection{
			Start: sp.Start, End: sp.End, Language: sp.Lang, Name: core.LanguageName(sp.Lang),
			Score: sp.Score, Margin: sp.Margin, Unknown: sp.Unknown,
		})
	}
	return out
}

func post(t *testing.T, ts *httptest.Server, path string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, resp.StatusCode, got)
	}
	return got
}

// TestResponsesMatchEncodingJSON: every document endpoint answers with
// the bytes encoding/json writes for the same values — /detect,
// /batch with and without counts, /stream in both modes with its
// in-band error lines, and /segment. The documents carry what the
// encoder must escape: invalid UTF-8, <>&, U+2028 and control bytes in
// ids, plus Latin-1 and unknown (too short) texts.
func TestResponsesMatchEncodingJSON(t *testing.T) {
	corp, ps := fixtures(t)
	var texts []string
	for _, lang := range testLangs {
		texts = append(texts, latin1ToUTF8(corp.Test[lang][0].Text), string(corp.Test[lang][1].Text))
	}
	texts = append(texts,
		latin1ToUTF8(corp.Test["en"][2].Text)+latin1ToUTF8(corp.Test["fi"][2].Text),
		"<b>caf\u00e9</b> & \u2028 \x01 fran\xe7ais avec des accents",
		"ab", "")
	ids := []string{"plain", "a\xffb", "<id>&", "line\u2028sep", "ctl\x01\t", ""}
	docs := make([]refDoc, len(texts))
	for i, text := range texts {
		docs[i] = refDoc{ID: ids[i%len(ids)], Text: text}
	}
	lineOf := func(d refDoc) []byte {
		if d.ID == "" {
			line, _ := json.Marshal(d.Text)
			return line
		}
		line, _ := json.Marshal(map[string]string{"id": d.ID, "text": d.Text})
		return line
	}
	// What the server reads: the documents after JSON transport.
	var sent []refDoc
	var batch []json.RawMessage
	for _, d := range docs {
		var r refDoc
		if err := json.Unmarshal(lineOf(d), &r); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, r)
		batch = append(batch, lineOf(d))
	}
	batchBody, _ := json.Marshal(batch)
	segCfg := core.SegmentConfig{}.WithDefaults()

	for _, withCounts := range []bool{false, true} {
		t.Run(fmt.Sprintf("counts=%v", withCounts), func(t *testing.T) {
			srv, err := serve.New(ps, serve.Config{IncludeCounts: withCounts, MaxLineBytes: 8 << 10})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			det := srv.Detector()

			if !withCounts {
				for _, d := range sent[:4] {
					text := []byte(d.Text)
					want := encodeJSON(t, wantDetection(det, "", text, true, nil))
					if got := post(t, ts, "/detect", text); !bytes.Equal(got, want) {
						t.Errorf("/detect:\n got %s\nwant %s", got, want)
					}
					spans, _ := det.DetectSpans(text, segCfg)
					want = encodeJSON(t, serve.Segmentation{Bytes: len(text), Window: segCfg.Window, Stride: segCfg.Stride, Penalty: segCfg.Penalty, Spans: spanDetections(spans)})
					if got := post(t, ts, "/segment", text); !bytes.Equal(got, want) {
						t.Errorf("/segment:\n got %s\nwant %s", got, want)
					}
				}
			}

			var wantBatch []serve.Detection
			for _, d := range sent {
				wantBatch = append(wantBatch, wantDetection(det, d.ID, []byte(d.Text), withCounts, nil))
			}
			if got, want := post(t, ts, "/batch", batchBody), encodeJSON(t, wantBatch); !bytes.Equal(got, want) {
				t.Errorf("/batch:\n got %s\nwant %s", got, want)
			}

			for _, spans := range []bool{false, true} {
				path := "/stream"
				var seg *core.SegmentConfig
				if spans {
					path, seg = "/stream?spans=1", &segCfg
				}
				var body bytes.Buffer
				var want [][]byte
				for i, d := range docs {
					body.Write(lineOf(d))
					body.WriteString("\r\n")
					want = append(want, encodeJSON(t, wantDetection(det, sent[i].ID, []byte(sent[i].Text), withCounts, seg)))
					if i == 2 {
						body.WriteString(`{"text":oops}` + "\n\n")
						want = append(want, nil) // an in-band error line
					}
				}
				// A last line over MaxLineBytes ends the stream in-band.
				body.WriteString(`"` + strings.Repeat("x", 9<<10) + `"`)
				want = append(want, encodeJSON(t, serve.Detection{Error: "document line exceeds 8192 bytes"}))

				got := bytes.SplitAfter(post(t, ts, path, body.Bytes()), []byte("\n"))
				if n := len(got) - 1; n != len(want) || len(got[n]) != 0 {
					t.Fatalf("%s: %d result lines, want %d", path, n, len(want))
				}
				for i, w := range want {
					if w == nil {
						var d serve.Detection
						if err := json.Unmarshal(got[i], &d); err != nil || !strings.HasPrefix(d.Error, "bad document line: ") {
							t.Fatalf("%s line %d: %s is not a bad-line error (%v)", path, i, got[i], err)
						}
						w = encodeJSON(t, serve.Detection{Error: d.Error})
					}
					if !bytes.Equal(got[i], w) {
						t.Errorf("%s line %d:\n got %s\nwant %s", path, i, got[i], w)
					}
				}
			}
		})
	}
}

// TestStreamAnswersEachLineInteractively: a client that writes one
// NDJSON line and waits for its answer before writing the next gets
// every answer — /stream sends what it has answered before it blocks
// reading the next line. A hang fails the test instead of stalling it.
func TestStreamAnswersEachLineInteractively(t *testing.T) {
	ts, corp := newTestServer(t, serve.Config{})
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/stream?spans=1", pr)
			if err != nil {
				return err
			}
			respc := make(chan *http.Response, 1)
			errc := make(chan error, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errc <- err
					return
				}
				respc <- resp
			}()
			var answers *bufio.Reader
			for i, lang := range testLangs {
				line, _ := json.Marshal(map[string]string{"id": lang, "text": latin1ToUTF8(corp.Test[lang][i].Text)})
				if _, err := pw.Write(append(line, '\n')); err != nil {
					return err
				}
				if answers == nil {
					// The response starts with the first answer.
					select {
					case resp := <-respc:
						defer resp.Body.Close()
						answers = bufio.NewReader(resp.Body)
					case err := <-errc:
						return err
					}
				}
				got, err := answers.ReadBytes('\n')
				if err != nil {
					return fmt.Errorf("answer %d: %v", i, err)
				}
				var d serve.Detection
				if err := json.Unmarshal(got, &d); err != nil {
					return err
				}
				if d.ID != lang || d.Language != lang || len(d.Spans) == 0 {
					return fmt.Errorf("answer %d = %s, want language %s with spans", i, got, lang)
				}
			}
			pw.Close()
			if rest, err := io.ReadAll(answers); err != nil || len(rest) != 0 {
				return fmt.Errorf("after the last line: %q, %v", rest, err)
			}
			return nil
		}()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		pw.CloseWithError(fmt.Errorf("test timed out"))
		t.Fatal("/stream did not answer a line before the client sent the next one")
	}
}

// endReader reads a body whose last bytes come with io.EOF, and notes
// that it has returned io.EOF.
type endReader struct {
	r     *bytes.Reader
	ended bool
}

func (e *endReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == nil && e.r.Len() == 0 {
		err = io.EOF
	}
	e.ended = err == io.EOF
	return n, err
}

// flushWriter is a ResponseWriter that keeps the body and fails the
// test on a Flush after the request body has ended.
type flushWriter struct {
	discardWriter
	t    *testing.T
	body *endReader
	out  bytes.Buffer
}

func (w *flushWriter) Write(p []byte) (int, error) { return w.out.Write(p) }
func (w *flushWriter) Flush() {
	if w.body.ended {
		w.t.Error("/stream flushed after the request body ended")
	}
}

// TestStreamNoFlushAfterBodyEnd: once the body has ended, with its last
// bytes, no read is left that could block, so /stream sends its last
// answers with the end of the response instead of flushing them first.
// Bodies both shorter and longer than the line reader's first buffer
// get every answer.
func TestStreamNoFlushAfterBodyEnd(t *testing.T) {
	_, ps := fixtures(t)
	srv, err := serve.New(ps, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, lines := range []int{1, 8, 64} {
		body := &endReader{r: bytes.NewReader(mixedLines(t, lines))}
		w := &flushWriter{discardWriter: discardWriter{header: http.Header{}}, t: t, body: body}
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/stream?spans=1", body))
		if got := bytes.Count(w.out.Bytes(), []byte("\n")); got != lines || !body.ended {
			t.Errorf("%d lines: %d answers, body read to its end: %v", lines, got, body.ended)
		}
	}
}

// discardWriter is a ResponseWriter that drops the body: the handler
// benchmarks and allocation tests measure the handler alone.
type discardWriter struct{ header http.Header }

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Flush()                      {}

// handlerRun returns a function that serves one prebuilt request
// through h to a discard writer.
func handlerRun(h http.Handler, path string, body []byte) func() {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, path, rd)
	w := &discardWriter{header: http.Header{}}
	return func() {
		rd.Reset(body)
		h.ServeHTTP(w, req)
	}
}

// mixedLines returns n NDJSON lines cycling through eight documents,
// each two languages back to back, as UTF-8.
func mixedLines(t testing.TB, n int) []byte {
	corp, _ := fixtures(t)
	var lines [8][]byte
	for k := range lines {
		a, b := testLangs[k%4], testLangs[(k/4+k+1)%4]
		text := latin1ToUTF8(corp.Test[a][k].Text) + " " + latin1ToUTF8(corp.Test[b][k].Text)
		line, _ := json.Marshal(map[string]string{"id": fmt.Sprintf("m%d", k), "text": text})
		lines[k] = append(line, '\n')
	}
	var body bytes.Buffer
	for i := 0; i < n; i++ {
		body.Write(lines[i%8])
	}
	return body.Bytes()
}

// TestStreamZeroAllocationsPerLine: a /stream?spans=1 document line —
// reading, decoding, counting, segmenting, encoding — allocates
// nothing once warm; the 64-line body costs no more allocations than
// the 8-line one.
func TestStreamZeroAllocationsPerLine(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	_, ps := fixtures(t)
	srv, err := serve.New(ps, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	allocs := func(lines int) float64 {
		body := mixedLines(t, lines)
		run := handlerRun(h, "/stream?spans=1", body)
		run()
		return testing.AllocsPerRun(50, run)
	}
	a8, a64 := allocs(8), allocs(64)
	t.Logf("/stream?spans=1 allocations per request: %.1f for 8 lines, %.1f for 64", a8, a64)
	if a64-a8 >= 1 {
		t.Errorf("64 lines cost %.1f allocations against %.1f for 8: lines allocate", a64, a8)
	}
}

// TestBatchZeroAllocations: /batch counts its documents on one
// borrowed stream, so a warm 32-document request, with or without
// per-language counts, allocates no more than a warm one-document
// /detect.
func TestBatchZeroAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	corp, ps := fixtures(t)
	allocs := func(cfg serve.Config, path string, body []byte) float64 {
		srv, err := serve.New(ps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := handlerRun(srv.Handler(), path, body)
		run()
		return testing.AllocsPerRun(50, run)
	}
	detect := allocs(serve.Config{}, "/detect", corp.Test["es"][0].Text)
	for _, cfg := range []serve.Config{{}, {IncludeCounts: true}} {
		batch := allocs(cfg, "/batch", batchBody(t))
		t.Logf("allocations per request: /batch of 32 %.1f (counts %v), /detect %.1f", batch, cfg.IncludeCounts, detect)
		if batch > detect {
			t.Errorf("/batch of 32 documents (counts %v) costs %.1f allocations against %.1f for /detect", cfg.IncludeCounts, batch, detect)
		}
	}
}

// batchBody is a /batch body of 32 UTF-8 JSON documents with ids.
func batchBody(tb testing.TB) []byte {
	corp, _ := fixtures(tb)
	var docs []map[string]string
	for i := 0; i < 32; i++ {
		lang := testLangs[i%4]
		docs = append(docs, map[string]string{"id": fmt.Sprint(i), "text": latin1ToUTF8(corp.Test[lang][i%8].Text)})
	}
	body, _ := json.Marshal(docs)
	return body
}

func benchmarkHandler(b *testing.B, cfg serve.Config, path string, body []byte) {
	_, ps := fixtures(b)
	srv, err := serve.New(ps, cfg)
	if err != nil {
		b.Fatal(err)
	}
	run := handlerRun(srv.Handler(), path, body)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for b.Loop() {
		run()
	}
}

// BenchmarkServeDetect times the /detect handler on one raw document.
func BenchmarkServeDetect(b *testing.B) {
	corp, _ := fixtures(b)
	benchmarkHandler(b, serve.Config{}, "/detect", corp.Test["es"][0].Text)
}

// BenchmarkServeBatch times the /batch handler on 32 UTF-8 JSON
// documents with ids.
func BenchmarkServeBatch(b *testing.B) {
	benchmarkHandler(b, serve.Config{}, "/batch", batchBody(b))
}

// BenchmarkServeStreamSpans times the /stream?spans=1 handler on eight
// mixed-language NDJSON lines.
func BenchmarkServeStreamSpans(b *testing.B) {
	benchmarkHandler(b, serve.Config{}, "/stream?spans=1", mixedLines(b, 8))
}
