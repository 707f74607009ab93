package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bloomlang/internal/corpus"
)

var tinySizes = sizes{trainDocs: 4, trainWords: 200, longDocs: 2, singles: 40, batches: 2, mixedDocs: 16}

func TestGenerateIsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, tinySizes)
		c, _ := generate(name, 8, tinySizes)
		same, differ := true, false
		for i := range a.reqs {
			same = same && bytes.Equal(a.reqs[i].body, b.reqs[i].body)
			differ = differ || i >= len(c.reqs) || !bytes.Equal(a.reqs[i].body, c.reqs[i].body)
		}
		if !same || !differ {
			t.Errorf("%s: same seed gives same inputs %t, another seed differs %t", name, same, differ)
		}
	}
}

func TestJSONBorneTextIsUTF8(t *testing.T) {
	if got := latin1ToUTF8([]byte("caf\xe9 \xf1")); got != "café ñ" {
		t.Fatalf("latin1ToUTF8 = %q", got)
	}
	w, err := generate(mixedStream, 1, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	var sawMultibyte bool
	for _, r := range w.reqs {
		for _, d := range r.docs {
			sawMultibyte = sawMultibyte || bytes.ContainsAny(d, "áéíóúåäöøæñçãõ")
		}
		for i, mt := range r.mixed {
			if mt.utf8Len != len(r.docs[i]) {
				t.Fatalf("truth covers %d UTF-8 bytes, document has %d", mt.utf8Len, len(r.docs[i]))
			}
		}
	}
	if !sawMultibyte {
		t.Fatal("no accented letter reached the wire as UTF-8")
	}
}

func TestCheckerRejectsMalformedAnswers(t *testing.T) {
	chk := newChecker([]string{"en", "fi"})
	detect := &request{kind: kindDetect, path: "/detect", truth: []string{"en"}}
	batch := &request{kind: kindBatch, path: "/batch", ids: []string{"a", "b"}, truth: []string{"en", "fi"}}
	stream := &request{kind: kindStream, path: "/stream?spans=1", ids: []string{"m0"},
		mixed: []mixedTruth{{utf8Len: 10, offs: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}}}
	stream.mixed[0].segs = []corpus.MixedSegment{{Lang: "en", Start: 0, End: 6}, {Lang: "fi", Start: 6, End: 10}}
	good := func(id, lang string) string {
		return fmt.Sprintf(`{"id":%q,"language":%q,"ngrams":9,"count":5,"score":0.5,"margin":0.1}`, id, lang)
	}
	for _, c := range []struct {
		name   string
		r      *request
		status int
		body   string
		units  int
		ok     bool
	}{
		{"detect right", detect, 200, good("", "en"), 1, true},
		{"detect wrong language", detect, 200, good("", "fi"), 0, true},
		{"detect unknown", detect, 200, `{"language":"","ngrams":1,"score":0,"unknown":true}`, 0, true},
		{"detect untrained language", detect, 200, good("", "de"), 0, false},
		{"detect empty language not unknown", detect, 200, `{"language":"","ngrams":1,"score":0}`, 0, false},
		{"detect missing ngrams", detect, 200, `{"language":"en","score":0.5}`, 0, false},
		{"detect non-2xx", detect, 422, `{"error":"x","status":422}`, 0, false},
		{"detect not JSON", detect, 200, `en`, 0, false},
		{"batch in order", batch, 200, "[" + good("a", "en") + "," + good("b", "en") + "]", 1, true},
		{"batch out of order", batch, 200, "[" + good("b", "fi") + "," + good("a", "en") + "]", 0, false},
		{"batch short", batch, 200, "[" + good("a", "en") + "]", 0, false},
		{"stream tiles", stream, 200, streamLine(`[{"start":0,"end":6,"language":"en"},{"start":6,"end":10,"language":"en"}]`), 6, true},
		{"stream gap", stream, 200, streamLine(`[{"start":0,"end":5,"language":"en"},{"start":6,"end":10,"language":"fi"}]`), 0, false},
		{"stream short of the end", stream, 200, streamLine(`[{"start":0,"end":9,"language":"en"}]`), 0, false},
		{"stream no spans", stream, 200, good("m0", "en"), 0, false},
		{"stream error line", stream, 200, `{"error":"bad document line"}`, 0, false},
	} {
		units, err := chk.check(c.r, c.status, []byte(c.body))
		if (err == nil) != c.ok || (c.ok && units != c.units) {
			t.Errorf("%s: units %d, err %v; want units %d, ok %t", c.name, units, err, c.units, c.ok)
		}
	}
}

func streamLine(spans string) string {
	return strings.TrimSpace(fmt.Sprintf(`{"id":"m0","language":"en","ngrams":7,"score":0.5,"spans":%s}`, spans)) + "\n"
}

// TestSmokeEveryWorkload runs every workload very briefly, untraced and
// traced, and checks that each prints exactly the metrics
// BENCHMARK.json declares for it, with every answer correct.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 0.6, trace: traced, dir: t.TempDir(),
				sizes: tinySizes, setups: 2, warmup: 100 * time.Millisecond}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%t: %d of %d requests failed: %v", name, traced, rep.failed, rep.attempted, rep.notes)
			}
			want := map[string]bool{}
			list := decl.EndToEnd
			if traced {
				list = decl.PerLayer
			}
			for _, m := range list {
				want[m.Name] = true
			}
			got := map[string]bool{}
			for _, m := range rep.metrics {
				got[m.name] = true
				if !want[m.name] {
					t.Errorf("%s traced=%t prints undeclared metric %s", name, traced, m.name)
				}
			}
			for m := range want {
				if !got[m] {
					t.Errorf("%s traced=%t does not print %s", name, traced, m)
				}
			}
		}
	}
}
