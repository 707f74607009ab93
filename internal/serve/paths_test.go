package serve_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"bloomlang/internal/core"
	"bloomlang/internal/serve"
)

// FuzzPathsAgree sends one document through every path of one server's
// Handler and holds them to one answer, Detector.DetectCounts': /detect
// on the raw bytes, /batch and /stream with the document as a JSON
// string, and /stream?spans=1 each report its match and, since the
// server includes counts, its per-language counts; a Stream and a
// segmenting Stream fed the bytes under random write splits count the
// same. The server segments at Penalty math.MaxInt over a horizon past
// any input, so /segment answers one span tiling the body, decided as
// Detect decides the document, and /stream?spans=1 carries that span.
// An empty body gets 422 from /detect and from /segment; a non-empty
// body with no n-gram gets /detect's 422 and one Unknown span from
// /segment.
//
// The domain is ASCII: each input byte's high bit is cleared. JSON
// transport is UTF-8 while the pipeline reads ISO-8859-1, so a byte
// above 0x7F reaches the JSON paths as other characters than /detect
// counts: the open encoding defect ("Encoding-correct input" in
// ROADMAP.md). Nothing else is filtered.
func FuzzPathsAgree(f *testing.F) {
	corp, ps := fixtures(f)
	cfg := serve.Config{IncludeCounts: true, Segment: core.SegmentConfig{Window: 1 << 20, Penalty: math.MaxInt}}
	srv, err := serve.New(ps, cfg)
	if err != nil {
		f.Fatal(err)
	}
	h, det, seg := srv.Handler(), srv.Detector(), cfg.Segment.WithDefaults()
	f.Add([]byte(""), uint64(0))
	f.Add([]byte("ab"), uint64(1))
	f.Add([]byte("the quick brown fox"), uint64(2))
	f.Add([]byte("<a> & \"b\" \\ \x00\x01\x1f\x7f tab\there"), uint64(3))
	f.Add(append(append([]byte{}, corp.Test["en"][0].Text...), corp.Test["fi"][0].Text...), uint64(4))
	f.Fuzz(func(t *testing.T, data []byte, split uint64) {
		doc := make([]byte, len(data))
		for i, c := range data {
			doc[i] = c & 0x7f
		}
		counts, m := det.DetectCounts(nil, doc)
		want := wantDetection(det, "", doc, true, nil)

		rng := rand.New(rand.NewPCG(split, 0))
		whole := det.NewStream()
		spans, err := det.NewSpanStream(cfg.Segment)
		if err != nil {
			t.Fatal(err)
		}
		for rest := doc; len(rest) > 0; {
			n := rng.IntN(min(len(rest), 40) + 1)
			whole.Write(rest[:n])
			spans.Write(rest[:n])
			rest = rest[n:]
		}
		for _, s := range []*core.Stream{whole, spans} {
			if got := s.AppendCounts(nil); !reflect.DeepEqual(got, counts) || s.Match() != m {
				t.Fatalf("stream split by %d: counts %v, %+v; DetectCounts %v, %+v", split, got, s.Match(), counts, m)
			}
		}
		wantSpans, err := det.DetectSpans(doc, seg)
		if err != nil {
			t.Fatal(err)
		}
		if got := spans.Finish(); !reflect.DeepEqual(got, wantSpans) {
			t.Fatalf("span stream split by %d: %+v; DetectSpans %+v", split, got, wantSpans)
		}

		if m.NGrams == 0 {
			if code, body := serveDoc(h, "/detect", doc); code != http.StatusUnprocessableEntity {
				t.Fatalf("/detect of %d bytes, no n-gram: status %d: %s", len(doc), code, body)
			}
		} else if got := answer[serve.Detection](t, h, "/detect", doc); !reflect.DeepEqual(got, want) {
			t.Fatalf("/detect: %+v\nwant %+v", got, want)
		}

		text, err := json.Marshal(string(doc))
		if err != nil {
			t.Fatal(err)
		}
		line := append(text, '\n')
		if got := answer[[]serve.Detection](t, h, "/batch", append(append([]byte("["), text...), ']')); !reflect.DeepEqual(got, []serve.Detection{want}) {
			t.Fatalf("/batch: %+v\nwant %+v", got, want)
		}
		if got := answer[serve.Detection](t, h, "/stream", line); !reflect.DeepEqual(got, want) {
			t.Fatalf("/stream: %+v\nwant %+v", got, want)
		}
		want.Spans = spanDetections(wantSpans)
		if got := answer[serve.Detection](t, h, "/stream?spans=1", line); !reflect.DeepEqual(got, want) {
			t.Fatalf("/stream?spans=1: %+v\nwant %+v", got, want)
		}

		if len(doc) == 0 {
			if code, body := serveDoc(h, "/segment", doc); code != http.StatusUnprocessableEntity {
				t.Fatalf("/segment of an empty body: status %d: %s", code, body)
			}
			return
		}
		one := []serve.SpanDetection{{
			Start: 0, End: len(doc), Language: m.Lang, Name: core.LanguageName(m.Lang),
			Score: m.Score, Margin: m.Margin, Unknown: m.Unknown,
		}}
		wantSeg := serve.Segmentation{Bytes: len(doc), Window: seg.Window, Stride: seg.Stride, Penalty: seg.Penalty, Spans: one}
		if got := answer[serve.Segmentation](t, h, "/segment", doc); !reflect.DeepEqual(got, wantSeg) {
			t.Fatalf("/segment: %+v\nwant %+v", got, wantSeg)
		}
		if !reflect.DeepEqual(want.Spans, one) {
			t.Fatalf("/stream?spans=1 spans %+v, /segment %+v", want.Spans, one)
		}
	})
}

// serveDoc posts body to path through h in process and returns the
// status and the response body.
func serveDoc(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// answer posts body to path through h and reads its 200 answer as a T.
func answer[T any](t *testing.T, h http.Handler, path string, body []byte) T {
	t.Helper()
	code, got := serveDoc(h, path, body)
	if code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, code, got)
	}
	var v T
	if err := json.Unmarshal(got, &v); err != nil {
		t.Fatalf("%s: %v: %s", path, err, got)
	}
	return v
}
