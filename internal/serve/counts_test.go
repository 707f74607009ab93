package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"bloomlang/internal/core"
	"bloomlang/internal/serve"
)

// TestIncludeCountsMatchDetect pins the per-language counts every
// counts-carrying path reports — /batch, /stream and /stream?spans=1
// under IncludeCounts — to /detect's counts for the same bytes. A
// server has no backend option, so this runs on core's exact kernel;
// core's equivalence suite covers counts on the paper's Bloom kernel
// too. JSON transport is UTF-8, so /detect is sent the UTF-8
// bytes of each JSON-decoded document: a Latin-1 byte reaches the JSON
// paths as U+FFFD, and the reference must see the same text.
func TestIncludeCountsMatchDetect(t *testing.T) {
	corp, ps := fixtures(t)
	var docs []string
	for _, lang := range testLangs {
		docs = append(docs, string(corp.Test[lang][0].Text), string(corp.Test[lang][1].Text))
	}
	docs = append(docs,
		string(corp.Test["en"][2].Text)+string(corp.Test["fi"][2].Text), // mixed, several spans
		"caf\xe9 fran\xe7ais avec des accents",                          // Latin-1 bytes
		"ab",                                                            // no n-grams
	)
	// What the server sees after JSON transport.
	raw, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []string
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	// The subtest is named for the backend the server runs on: direct
	// lookup, core's exact kernel.
	t.Run(core.BackendDirect.String(), func(t *testing.T) {
		srv, err := serve.New(ps, serve.Config{IncludeCounts: true})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		want := make([]map[string]int, len(decoded))
		for i, d := range decoded {
			want[i] = detectCounts(t, ts, []byte(d))
		}
		checkJSONPaths(t, ts, docs, want)
	})
}

// checkJSONPaths posts docs, JSON-encoded, as one /batch body and as
// NDJSON lines to /stream and /stream?spans=1, and checks every
// answer's counts against want (see checkCounts).
func checkJSONPaths(t *testing.T, ts *httptest.Server, docs []string, want []map[string]int) {
	t.Helper()
	raw, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	var ndjson bytes.Buffer
	for _, d := range docs {
		line, _ := json.Marshal(map[string]string{"text": d})
		ndjson.Write(line)
		ndjson.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var batch []serve.Detection
	err = json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, "/batch", batch, want)

	for _, path := range []string{"/stream", "/stream?spans=1"} {
		resp, err := http.Post(ts.URL+path, "application/x-ndjson", bytes.NewReader(ndjson.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var lines []serve.Detection
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var d serve.Detection
			if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, d)
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		checkCounts(t, path, lines, want)
	}
}

// detectCounts posts one document to /detect and returns its counts;
// a document too short for one n-gram (422) has all-zero counts.
func detectCounts(t *testing.T, ts *httptest.Server, doc []byte) map[string]int {
	t.Helper()
	resp, err := http.Post(ts.URL+"/detect", "text/plain", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnprocessableEntity {
		return nil
	}
	var d serve.Detection
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.Counts == nil {
		t.Fatalf("/detect answered without counts: %+v", d)
	}
	return d.Counts
}

func checkCounts(t *testing.T, path string, got []serve.Detection, want []map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d detections for %d documents", path, len(got), len(want))
	}
	for i, d := range got {
		if d.Counts == nil {
			t.Errorf("%s doc %d: no counts under IncludeCounts", path, i)
			continue
		}
		if want[i] == nil {
			// /detect refused the document; the counts must be all zero.
			for l, n := range d.Counts {
				if n != 0 {
					t.Errorf("%s doc %d: count %s=%d for a document without n-grams", path, i, l, n)
				}
			}
			continue
		}
		if !reflect.DeepEqual(d.Counts, want[i]) {
			t.Errorf("%s doc %d: counts %v, /detect %v", path, i, d.Counts, want[i])
		}
	}
}
