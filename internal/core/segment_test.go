package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bloomlang/internal/corpus"
	"bloomlang/internal/ngram"
)

// The property suite runs on its own corpus of four mutually unrelated
// languages (en, fi, da, cs — none of whose sibling languages are
// trained). The generator's sibling borrowing (es↔pt, fi↔et, …) makes
// a "pure" document genuinely carry runs of its sibling's words — real
// code-switching in miniature — so training a sibling pair would make
// the whole-document-single-span property legitimately false at window
// scale. Keeping siblings untrained keeps pure documents pure.
var (
	segCorpus   *corpus.Corpus
	segProfiles *ProfileSet
)

var segLangs = []string{"cs", "da", "en", "fi"}

func getSegCorpus(t testing.TB) *corpus.Corpus {
	t.Helper()
	if segCorpus == nil {
		c, err := corpus.Generate(corpus.Config{
			Languages:       segLangs,
			DocsPerLanguage: 30,
			WordsPerDoc:     150,
			TrainFraction:   0.3,
			Seed:            7,
		})
		if err != nil {
			t.Fatal(err)
		}
		segCorpus = c
	}
	return segCorpus
}

func segDetector(t testing.TB, backend Backend) *Detector {
	t.Helper()
	if segProfiles == nil {
		ps, err := trainTexts(Config{TopT: 1000}, getSegCorpus(t).TrainTextsByLanguage())
		if err != nil {
			t.Fatal(err)
		}
		segProfiles = ps
	}
	det, err := NewDetector(segProfiles, withBackend(backend))
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// segTestConfig is the configuration the property suite runs under: a
// commit horizon of four chunks, short enough that the 150-word test
// documents are committed along the best path many times before they
// end.
var segTestConfig = SegmentConfig{Window: 96, Stride: 24, Penalty: 8}

// checkTiling asserts the fundamental structural guarantee: spans tile
// [0, docLen) in order with no gaps and no overlaps.
func checkTiling(t *testing.T, spans []Span, docLen int) {
	t.Helper()
	if docLen == 0 {
		if len(spans) != 0 {
			t.Fatalf("empty document produced %d spans: %+v", len(spans), spans)
		}
		return
	}
	if len(spans) == 0 {
		t.Fatalf("no spans for a %d-byte document", docLen)
	}
	if spans[0].Start != 0 {
		t.Errorf("first span starts at %d, want 0", spans[0].Start)
	}
	if spans[len(spans)-1].End != docLen {
		t.Errorf("last span ends at %d, want %d", spans[len(spans)-1].End, docLen)
	}
	for i, sp := range spans {
		if sp.Start >= sp.End {
			t.Errorf("span %d is empty or inverted: [%d,%d)", i, sp.Start, sp.End)
		}
		if i > 0 && sp.Start != spans[i-1].End {
			t.Errorf("span %d starts at %d, previous ends at %d (gap or overlap)", i, sp.Start, spans[i-1].End)
		}
		if sp.Unknown != (sp.Lang == "") {
			t.Errorf("span %d: Unknown=%v but Lang=%q", i, sp.Unknown, sp.Lang)
		}
	}
}

// TestDetectSpansSingleLanguageSingleSpan is the headline property: a
// document drawn entirely from one language yields exactly one span
// covering the whole input, on every backend, and that span carries
// the language Detect would call.
func TestDetectSpansSingleLanguageSingleSpan(t *testing.T) {
	corp := getSegCorpus(t)
	for _, backend := range equivBackends() {
		t.Run(backend.String(), func(t *testing.T) {
			det := segDetector(t, backend)
			for _, lang := range segLangs {
				for i := 0; i < 20; i++ {
					doc := corp.Test[lang][i].Text
					spans, err := det.DetectSpans(doc, segTestConfig)
					if err != nil {
						t.Fatal(err)
					}
					checkTiling(t, spans, len(doc))
					if len(spans) != 1 {
						t.Fatalf("%s doc %d: %d spans %+v, want a single whole-document span",
							lang, i, len(spans), spans)
					}
					if want := det.Detect(doc).Lang; spans[0].Lang != want {
						t.Errorf("%s doc %d: span language %q, Detect says %q", lang, i, spans[0].Lang, want)
					}
					if spans[0].Score <= 0 || spans[0].Margin < 0 {
						t.Errorf("%s doc %d: degenerate span confidence %+v", lang, i, spans[0])
					}
				}
			}
		})
	}
}

// TestDetectSpansTiling checks the no-gaps/no-overlaps guarantee on
// every backend over awkward inputs: mixed documents, byte soup,
// short documents, sub-n documents, and the empty document.
func TestDetectSpansTiling(t *testing.T) {
	corp := getSegCorpus(t)
	mixed := append(append([]byte{}, corp.Test["en"][0].Text...), corp.Test["fi"][0].Text...)
	docs := [][]byte{
		nil,            // empty: zero spans
		[]byte("ab"),   // shorter than one n-gram: one Unknown span
		[]byte("word"), // exactly one n-gram
		[]byte(strings.Repeat("\x00\x01\x02 soup ", 40)), // byte soup
		corp.Test["da"][0].Text,
		mixed,
	}
	for _, backend := range equivBackends() {
		t.Run(backend.String(), func(t *testing.T) {
			det := segDetector(t, backend)
			for i, doc := range docs {
				spans, err := det.DetectSpans(doc, segTestConfig)
				if err != nil {
					t.Fatal(err)
				}
				checkTiling(t, spans, len(doc))
				if i == 1 && (len(spans) != 1 || !spans[0].Unknown) {
					t.Errorf("sub-n document spans = %+v, want one Unknown span", spans)
				}
			}
		})
	}
}

// TestDetectSpansSingleWindowAgreesWithDetect pins the degenerate
// case: a document that fits inside one window is decided exactly as
// Detect decides it — same language, score, margin, and unknown
// outcome — on every backend.
func TestDetectSpansSingleWindowAgreesWithDetect(t *testing.T) {
	corp := getSegCorpus(t)
	cases := [][]byte{
		corp.Test["en"][0].Text[:40],
		corp.Test["da"][0].Text[:94], // a few grams short of one full window
		corp.Test["cs"][0].Text[:10],
		[]byte("xyz"), // zero n-grams of n=4: Unknown
	}
	for _, backend := range equivBackends() {
		t.Run(backend.String(), func(t *testing.T) {
			det := segDetector(t, backend)
			for i, doc := range cases {
				m := det.Detect(doc)
				spans, err := det.DetectSpans(doc, segTestConfig)
				if err != nil {
					t.Fatal(err)
				}
				if len(spans) != 1 {
					t.Fatalf("case %d: %d spans for a single-window document", i, len(spans))
				}
				sp := spans[0]
				if sp.Start != 0 || sp.End != len(doc) {
					t.Errorf("case %d: span [%d,%d), want [0,%d)", i, sp.Start, sp.End, len(doc))
				}
				if sp.Lang != m.Lang || sp.Score != m.Score || sp.Margin != m.Margin || sp.Unknown != m.Unknown {
					t.Errorf("case %d: span %+v disagrees with Detect %+v", i, sp, m)
				}
			}
		})
	}
}

// TestDetectSpansFindsMixedBoundary checks segmentation does its job:
// a two-language concatenation comes back as the two languages in
// order, with the detected boundary within a window of the true one.
func TestDetectSpansFindsMixedBoundary(t *testing.T) {
	corp := getSegCorpus(t)
	for _, backend := range equivBackends() {
		t.Run(backend.String(), func(t *testing.T) {
			det := segDetector(t, backend)
			a, b := corp.Test["en"][0].Text, corp.Test["fi"][0].Text
			doc := append(append([]byte{}, a...), b...)
			spans, err := det.DetectSpans(doc, segTestConfig)
			if err != nil {
				t.Fatal(err)
			}
			checkTiling(t, spans, len(doc))
			if len(spans) != 2 {
				t.Fatalf("mixed en|fi document produced %d spans: %+v", len(spans), spans)
			}
			if spans[0].Lang != "en" || spans[1].Lang != "fi" {
				t.Errorf("span languages %q|%q, want en|fi", spans[0].Lang, spans[1].Lang)
			}
			// The boundary must fall near the true switch point.
			d := spans[1].Start - len(a)
			if d < 0 {
				d = -d
			}
			if tol := segTestConfig.Window; d > tol {
				t.Errorf("boundary %d is %d bytes from the true switch at %d (tolerance %d)",
					spans[1].Start, d, len(a), tol)
			}
		})
	}
}

// TestSpanStreamMatchesOneShot is the chunking-independence guarantee:
// feeding a document to a segmenting Stream in arbitrary splits — including
// cuts landing mid-n-gram and mid-chunk — produces the identical spans
// as one-shot DetectSpans.
func TestSpanStreamMatchesOneShot(t *testing.T) {
	corp := getSegCorpus(t)
	for _, backend := range equivBackends() {
		t.Run(backend.String(), func(t *testing.T) {
			det := segDetector(t, backend)
			doc := append(append([]byte{}, corp.Test["da"][0].Text...), corp.Test["en"][1].Text...)
			want, err := det.DetectSpans(doc, segTestConfig)
			if err != nil {
				t.Fatal(err)
			}
			st, err := det.NewSpanStream(segTestConfig)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 20; trial++ {
				st.Reset()
				pts := splitPoints(rng, len(doc), 1+rng.Intn(12))
				for i := 1; i < len(pts); i++ {
					if _, err := st.Write(doc[pts[i-1]:pts[i]]); err != nil {
						t.Fatal(err)
					}
				}
				if got := st.Finish(); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (splits %v): stream spans %+v != one-shot %+v", trial, pts, got, want)
				}
			}
		})
	}
}

// TestSpanStreamIncrementalFinalization checks the streaming contract:
// Spans() only ever exposes finalized spans (a prefix of the final
// answer), Finish() completes it, and writing after Finish fails until
// Reset.
func TestSpanStreamIncrementalFinalization(t *testing.T) {
	corp := getSegCorpus(t)
	det := segDetector(t, backendBloom)
	doc := append(append([]byte{}, corp.Test["en"][0].Text...), corp.Test["cs"][0].Text...)
	want, err := det.DetectSpans(doc, segTestConfig)
	if err != nil {
		t.Fatal(err)
	}
	st, err := det.NewSpanStream(segTestConfig)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(doc); i += 50 {
		end := i + 50
		if end > len(doc) {
			end = len(doc)
		}
		st.Write(doc[i:end])
		partial := st.Spans()
		if len(partial) > len(want) {
			t.Fatalf("mid-stream finalized %d spans, final answer has %d", len(partial), len(want))
		}
		for j, sp := range partial {
			if sp != want[j] {
				t.Fatalf("mid-stream span %d = %+v, final %+v", j, sp, want[j])
			}
		}
	}
	if got := st.Finish(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Finish spans %+v != one-shot %+v", got, want)
	}
	if _, err := st.Write([]byte("more")); err == nil {
		t.Fatal("Write after Finish succeeded")
	}
	st.Reset()
	if _, err := st.Write(doc[:10]); err != nil {
		t.Fatalf("Write after Reset failed: %v", err)
	}
}

// TestSpanStreamMatchAgreesWithDetect pins the stream's ride-along
// whole-document decision to Detect, mid-stream (buffered tail folded
// on demand) and after Finish, on every backend.
func TestSpanStreamMatchAgreesWithDetect(t *testing.T) {
	corp := getSegCorpus(t)
	for _, backend := range equivBackends() {
		t.Run(backend.String(), func(t *testing.T) {
			det := segDetector(t, backend)
			doc := append(append([]byte{}, corp.Test["en"][0].Text...), corp.Test["da"][0].Text...)
			st, err := det.NewSpanStream(segTestConfig)
			if err != nil {
				t.Fatal(err)
			}
			for _, cut := range []int{0, 1, 3, 7, 100, len(doc)} {
				st.Reset()
				st.Write(doc[:cut])
				if got, want := st.Match(), det.Detect(doc[:cut]); got != want {
					t.Errorf("prefix %d: stream match %+v != detect %+v", cut, got, want)
				}
				if got, want := st.AppendCounts(nil), classify(det, doc[:cut]).Counts; !reflect.DeepEqual(got, want) {
					t.Errorf("prefix %d: stream counts %v != classify %v", cut, got, want)
				}
			}
			st.Reset()
			st.Write(doc)
			st.Finish()
			if got, want := st.Match(), det.Detect(doc); got != want {
				t.Errorf("post-Finish match %+v != detect %+v", got, want)
			}
			if got, want := st.AppendCounts(nil), classify(det, doc).Counts; !reflect.DeepEqual(got, want) {
				t.Errorf("post-Finish counts %v != classify %v", got, want)
			}
		})
	}
}

// TestSpanStreamWriteStringMatchesWrite pins the copy-free string
// path (io.StringWriter) to the byte path.
func TestSpanStreamWriteStringMatchesWrite(t *testing.T) {
	corp := getSegCorpus(t)
	det := segDetector(t, backendBloom)
	doc := append(append([]byte{}, corp.Test["fi"][0].Text...), corp.Test["en"][0].Text...)
	want, err := det.DetectSpans(doc, segTestConfig)
	if err != nil {
		t.Fatal(err)
	}
	st, err := det.NewSpanStream(segTestConfig)
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	for i := 0; i < len(text); i += 37 {
		end := i + 37
		if end > len(text) {
			end = len(text)
		}
		if _, err := st.WriteString(text[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Finish(); !reflect.DeepEqual(got, want) {
		t.Fatalf("WriteString spans %+v != Write spans %+v", got, want)
	}
	if _, err := st.WriteString("more"); err == nil {
		t.Fatal("WriteString after Finish succeeded")
	}
}

// TestAppendSpansReusesDst checks the allocation-discipline API shape:
// appending into a reused slice returns the same backing array once
// warm and produces the same spans.
func TestAppendSpansReusesDst(t *testing.T) {
	corp := getSegCorpus(t)
	det := segDetector(t, backendBloom)
	doc := corp.Test["en"][0].Text
	want, err := det.DetectSpans(doc, segTestConfig)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := det.AppendSpans(nil, doc, segTestConfig)
	if err != nil {
		t.Fatal(err)
	}
	again, err := det.AppendSpans(dst[:0], doc, segTestConfig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("reused-dst spans %+v != %+v", again, want)
	}
	if cap(again) != cap(dst) {
		t.Errorf("reused dst reallocated: cap %d -> %d", cap(dst), cap(again))
	}
}

// TestDetectSpansZeroAllocations is the hot-path discipline check for
// the segmentation path: with pooled scratch warm and a reused dst,
// segmenting allocates nothing on any built-in backend.
func TestDetectSpansZeroAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	corp := getSegCorpus(t)
	doc := append(append([]byte{}, corp.Test["da"][0].Text...), corp.Test["en"][0].Text...)
	for _, backend := range equivBackends() {
		det := segDetector(t, backend)
		dst, err := det.AppendSpans(nil, doc, segTestConfig)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			dst, _ = det.AppendSpans(dst[:0], doc, segTestConfig)
		}); allocs != 0 {
			t.Errorf("%s: AppendSpans allocates %.1f objects per call, want 0", backend, allocs)
		}
	}
}

// referenceSpans is the brute-force segmentation the Stream must
// reproduce exactly: each chunk's row is DetectCounts over the chunk's
// own bytes (its n-grams and the n-1 bytes they run into), an
// O(chunks·L²) Viterbi keeps the best
// predecessor of every (chunk, language) — staying on ties, else the
// lowest-index best — the path ends at the lowest-index best score,
// and each span is decided by Detect's rule over its summed counts.
// cfg's Window must cover the document: the reference has no horizon.
func referenceSpans(t testing.TB, det *Detector, doc []byte, cfg SegmentConfig) []Span {
	t.Helper()
	cfg = cfg.WithDefaults()
	if len(doc) == 0 {
		return nil
	}
	L, n, stride := len(det.Languages()), det.Config().N, cfg.Stride
	_, whole := det.DetectCounts(nil, doc)
	grams := whole.NGrams
	chunks := (grams + stride - 1) / stride
	if chunks > cfg.Window/stride {
		t.Fatalf("reference needs a window over all %d chunks, have %d", chunks, cfg.Window/stride)
	}
	cum := [][]int{make([]int, L)}
	for c := 1; c <= chunks; c++ {
		row, _ := det.DetectCounts(nil, doc[(c-1)*stride:min(c*stride, grams)+n-1])
		for l := range row {
			row[l] += cum[c-1][l]
		}
		cum = append(cum, row)
	}
	score := make([]int, L)
	from := make([][]int, chunks)
	for c := range chunks {
		next := make([]int, L)
		from[c] = make([]int, L)
		for l := range L {
			k, v := l, score[l]
			for j := range L {
				if j != l && score[j]-cfg.Penalty > v {
					k, v = j, score[j]-cfg.Penalty
				}
			}
			next[l], from[c][l] = v+cum[c+1][l]-cum[c][l], k
		}
		score = next
	}
	label := 0
	for l := range L {
		if score[l] > score[label] {
			label = l
		}
	}
	labels := make([]int, chunks)
	for c := chunks - 1; c >= 0; c-- {
		labels[c], label = label, from[c][label]
	}
	span := func(start, end, startGram, endGram int, a, b []int) Span {
		counts := make([]int, L)
		for l := range counts {
			counts[l] = b[l] - a[l]
		}
		m := det.match(counts, endGram-startGram)
		return Span{Start: start, End: end, Lang: m.Lang, Score: m.Score, Margin: m.Margin, Unknown: m.Unknown}
	}
	if chunks == 0 {
		return []Span{span(0, len(doc), 0, 0, cum[0], cum[0])}
	}
	var spans []Span
	start := 0
	for c := 1; c <= chunks; c++ {
		if c < chunks && labels[c] == labels[start] {
			continue
		}
		end, endGram := c*stride, c*stride
		if c == chunks {
			end, endGram = len(doc), grams
		}
		spans = append(spans, span(start*stride, end, start*stride, endGram, cum[start], cum[c]))
		start = c
	}
	return spans
}

// wholeDocument returns cfg with a horizon over any test document, so
// no chunk is committed before the survivor paths agree.
func wholeDocument(cfg SegmentConfig) SegmentConfig {
	cfg = cfg.WithDefaults()
	cfg.Window = cfg.Stride << 12
	return cfg
}

// segReferenceDocs returns pure and mixed documents from the segment
// corpus.
func segReferenceDocs(t testing.TB) [][]byte {
	corp := getSegCorpus(t)
	var docs [][]byte
	for i, lang := range segLangs {
		docs = append(docs, corp.Test[lang][0].Text, corp.Test[lang][1].Text[:60])
		other := corp.Test[segLangs[(i+1)%len(segLangs)]][2].Text
		mixed := append(append(append([]byte{}, corp.Test[lang][3].Text...), other...), corp.Test[lang][4].Text[:200]...)
		docs = append(docs, mixed)
	}
	return append(docs, []byte("ab"), []byte("word"), []byte(strings.Repeat("\x00\x01 soup ", 30)))
}

// TestDetectSpansMatchesReferenceViterbi pins the segmenter to the
// brute-force reference span for span, on every backend and on the
// exact kernel at n = 6, one-shot and streamed in random splits, under
// configurations that take the lane step (Penalty+Stride below 128),
// the row step, and odd strides.
func TestDetectSpansMatchesReferenceViterbi(t *testing.T) {
	docs := segReferenceDocs(t)
	cfgs := []SegmentConfig{
		{Stride: 16, Penalty: 8},
		{Stride: 24, Penalty: 8},
		{Stride: 24, Penalty: 120},
		{Stride: 7, Penalty: 3},
		{Stride: 1, Penalty: 2},
	}
	rng := rand.New(rand.NewSource(5))
	var dets []*Detector
	for _, backend := range equivBackends() {
		dets = append(dets, segDetector(t, backend))
	}
	six, err := trainTexts(Config{N: 6, TopT: 1000}, getSegCorpus(t).TrainTextsByLanguage())
	if err != nil {
		t.Fatal(err)
	}
	for _, det := range append(dets, mustDetector(t, six)) {
		t.Run(rowName(det), func(t *testing.T) {
			for _, cfg := range cfgs {
				cfg = wholeDocument(cfg)
				st, err := det.NewSpanStream(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, doc := range docs {
					want := referenceSpans(t, det, doc, cfg)
					got, err := det.DetectSpans(doc, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v doc %d: spans\n%+v\nreference\n%+v", cfg, i, got, want)
					}
					st.Reset()
					pts := splitPoints(rng, len(doc), 1+rng.Intn(8))
					for j := 1; j < len(pts); j++ {
						st.Write(doc[pts[j-1]:pts[j]])
					}
					if got := st.Finish(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v doc %d split at %v: spans\n%+v\nreference\n%+v", cfg, i, pts, got, want)
					}
				}
			}
		})
	}
}

// TestDetectSpansPenaltyOverDocumentIsDetect: when one language change
// costs more than the document has n-grams, no change can pay, so the
// document is one span labelled, scored and marked Unknown exactly as
// Detect decides it — under the unknown policy too, and at the largest
// penalty, where the lane step's guard must not overflow.
func TestDetectSpansPenaltyOverDocumentIsDetect(t *testing.T) {
	docs := segReferenceDocs(t)
	for _, backend := range equivBackends() {
		for _, det := range []*Detector{
			segDetector(t, backend),
			mustDetector(t, segProfiles, withBackend(backend), WithMinMargin(0.3), WithMinNGrams(40)),
		} {
			for i, doc := range docs {
				if len(doc) == 0 {
					continue
				}
				m := det.Detect(doc)
				want := Span{Start: 0, End: len(doc), Lang: m.Lang, Score: m.Score, Margin: m.Margin, Unknown: m.Unknown}
				for _, penalty := range []int{len(doc) + 1, math.MaxInt} {
					spans, err := det.DetectSpans(doc, SegmentConfig{Penalty: penalty})
					if err != nil {
						t.Fatal(err)
					}
					if len(spans) != 1 || spans[0] != want {
						t.Errorf("%s doc %d penalty %d: spans %+v, want the one Detect span %+v", backend, i, penalty, spans, want)
					}
				}
			}
		}
	}
}

// TestDetectSpansHugeWindow: a horizon near the int range is valid and
// never commits early, so it segments as a horizon over the document.
func TestDetectSpansHugeWindow(t *testing.T) {
	det := segDetector(t, BackendDirect)
	for _, cfg := range []SegmentConfig{{Window: math.MaxInt - 15}, {Window: math.MaxInt - 15, Stride: 1}, {Window: math.MaxInt}} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		for i, doc := range segReferenceDocs(t) {
			got, err := det.DetectSpans(doc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := det.DetectSpans(doc, wholeDocument(cfg))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v doc %d: spans\n%+v\nwant\n%+v", cfg, i, got, want)
			}
		}
	}
}

// TestDetectSpansManyLanguages runs the reference check on a 70-language
// profile set — several mask planes and a two-word switched bitset —
// with near-duplicate profiles, so ties are everywhere.
func TestDetectSpansManyLanguages(t *testing.T) {
	getSegCorpus(t)
	segDetector(t, BackendDirect)
	shared := cloneProfiles(segProfiles.Profiles)
	ps := &ProfileSet{Config: segProfiles.Config}
	for i := range 70 {
		src := segProfiles.Profiles[i%len(segProfiles.Profiles)]
		p := *src
		p.Language = fmt.Sprintf("l%02d", i)
		p.Grams = nil
		for j, g := range src.Grams {
			if j%(i/4+2) != 0 {
				p.Grams = append(p.Grams, g)
			}
		}
		if len(p.Grams) == 0 {
			t.Fatalf("profile %s is empty", p.Language)
		}
		ps.Profiles = append(ps.Profiles, &p)
	}
	docs := segReferenceDocs(t)
	for _, backend := range equivBackends() {
		det := mustDetector(t, ps, withBackend(backend))
		cfg := wholeDocument(SegmentConfig{Stride: 16, Penalty: 4})
		for i, doc := range docs {
			got, err := det.DetectSpans(doc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceSpans(t, det, doc, cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s doc %d: spans\n%+v\nreference\n%+v", backend, i, got, want)
			}
		}
	}
	if !reflect.DeepEqual(segProfiles.Profiles, shared) {
		t.Fatal("the 70-language check changed the shared segmentation profiles")
	}
}

// cloneProfiles returns a deep copy of ps.
func cloneProfiles(ps []*ngram.Profile) []*ngram.Profile {
	out := make([]*ngram.Profile, len(ps))
	for i, p := range ps {
		c := *p
		c.Grams = slices.Clone(p.Grams)
		out[i] = &c
	}
	return out
}

func mustDetector(t testing.TB, ps *ProfileSet, opts ...DetectorOption) *Detector {
	t.Helper()
	det, err := NewDetector(ps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestSegmentConfigValidate exercises the configuration guard rails.
func TestSegmentConfigValidate(t *testing.T) {
	good := []SegmentConfig{
		{},
		{Window: 32},
		{Window: 90}, // the default stride does not divide: nudged to a divisor
		{Window: 9},
		{Window: 32, Stride: 32}, // a one-chunk horizon
		{Window: 30, Stride: 10, Penalty: 5},
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
		if eff := cfg.WithDefaults(); eff.Window%eff.Stride != 0 {
			t.Errorf("good config %d: default stride %d does not divide window %d", i, eff.Stride, eff.Window)
		}
	}
	bad := []SegmentConfig{
		{Window: -1},
		{Window: 64, Stride: -2},
		{Window: 64, Stride: 65},
		{Window: 64, Stride: 24}, // does not divide
		{Penalty: -3},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d (%+v) accepted", i, cfg)
		}
		if _, err := segDetector(t, BackendDirect).DetectSpans([]byte("doc"), cfg); err == nil {
			t.Errorf("DetectSpans accepted bad config %d (%+v)", i, cfg)
		}
	}
	if c := (SegmentConfig{}).WithDefaults(); c.Window != DefaultSegmentWindow || c.Stride != DefaultSegmentStride || c.Penalty != DefaultSegmentPenalty {
		t.Errorf("defaults = %+v", c)
	}
}

// TestSegmentStrideFitsAByte: a chunk keeps one count byte per
// language, so MaxSegmentStride is the largest stride accepted. At
// that stride a chunk whose every n-gram matches fills its byte, and
// the spans still match the reference on every backend.
func TestSegmentStrideFitsAByte(t *testing.T) {
	over := SegmentConfig{Window: 2 * (MaxSegmentStride + 1), Stride: MaxSegmentStride + 1}
	if err := over.Validate(); err == nil {
		t.Errorf("stride %d accepted", over.Stride)
	}
	cfg := wholeDocument(SegmentConfig{Stride: MaxSegmentStride, Penalty: 8})
	full := []byte(strings.Repeat("the ", 200))
	docs := append(segReferenceDocs(t), full)
	for _, backend := range equivBackends() {
		det := segDetector(t, backend)
		row, _ := det.DetectCounts(nil, full[:MaxSegmentStride+det.Config().N-1])
		if slices.Max(row) != MaxSegmentStride {
			t.Fatalf("%s: no language matches every n-gram of the first chunk: %v", backend, row)
		}
		for i, doc := range docs {
			want := referenceSpans(t, det, doc, cfg)
			if got, err := det.DetectSpans(doc, cfg); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s doc %d: spans\n%+v (%v)\nreference\n%+v", backend, i, got, err, want)
			}
		}
	}
}

// TestDetectSpansUnknownPolicy: under an unattainable margin floor
// every window is unknown, so the whole document merges into one
// Unknown span — the segmentation analogue of Detect's unknown
// thresholding.
func TestDetectSpansUnknownPolicy(t *testing.T) {
	getSegCorpus(t)
	segDetector(t, backendBloom) // ensure segProfiles is trained
	det, err := NewDetector(segProfiles, withBackend(backendBloom), WithMinMargin(0.99))
	if err != nil {
		t.Fatal(err)
	}
	doc := segCorpus.Test["en"][0].Text
	spans, err := det.DetectSpans(doc, segTestConfig)
	if err != nil {
		t.Fatal(err)
	}
	checkTiling(t, spans, len(doc))
	if len(spans) != 1 || !spans[0].Unknown || spans[0].Lang != "" {
		t.Fatalf("spans under 0.99 margin floor = %+v, want one Unknown span", spans)
	}
}

// TestGenerateMixedDeterministic pins the mixed-corpus generator the
// golden segmentation gate depends on: identical configs generate
// identical documents, segments tile, and consecutive segments always
// switch language.
func TestGenerateMixedDeterministic(t *testing.T) {
	cfg := corpus.MixedConfig{Languages: segLangs, Docs: 6, SegmentsPerDoc: 3, WordsPerSegment: 40, Seed: 5}
	a, err := corpus.GenerateMixed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := corpus.GenerateMixed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("GenerateMixed is not deterministic for equal configs")
	}
	for _, d := range a {
		if len(d.Segments) != 3 {
			t.Fatalf("doc %d has %d segments", d.ID, len(d.Segments))
		}
		if d.Segments[0].Start != 0 || d.Segments[len(d.Segments)-1].End != len(d.Text) {
			t.Errorf("doc %d segments do not cover the text: %+v", d.ID, d.Segments)
		}
		for i, seg := range d.Segments {
			if seg.Start >= seg.End {
				t.Errorf("doc %d segment %d empty: %+v", d.ID, i, seg)
			}
			if i > 0 {
				if seg.Start != d.Segments[i-1].End {
					t.Errorf("doc %d segment %d does not abut previous", d.ID, i)
				}
				if seg.Lang == d.Segments[i-1].Lang {
					t.Errorf("doc %d segments %d,%d share language %q", d.ID, i-1, i, seg.Lang)
				}
			}
		}
	}
	if _, err := corpus.GenerateMixed(corpus.MixedConfig{Languages: []string{"en"}}); err == nil {
		t.Error("single-language mixed config accepted")
	}
}
