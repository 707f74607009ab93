package core

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"

	"bloomlang/internal/corpus"
	"bloomlang/internal/ngram"
)

// TestWinnerSelectionEdgeCases pins the winner-selection rules match
// applies on hand-built counters: exact ties, single-language sets,
// all-zero counts, and the empty document, which has no winner at all.
func TestWinnerSelectionEdgeCases(t *testing.T) {
	cases := []struct {
		name                 string
		counts               []int
		ngrams               int
		wantBest, wantSecond int
	}{
		{"clear winner", []int{3, 9, 1}, 10, 1, 0},
		{"exact tie breaks to lower index", []int{7, 7, 2}, 10, 0, 1},
		{"three-way tie", []int{4, 4, 4}, 10, 0, 1},
		{"tie for second", []int{9, 5, 5}, 10, 0, 1},
		{"single language", []int{6}, 10, 0, -1},
		{"all zero counts", []int{0, 0, 0}, 10, 0, 1},
		{"empty document", []int{0, 0, 0}, 0, -1, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ps := &ProfileSet{}
			for i := range tc.counts {
				ps.Profiles = append(ps.Profiles, &ngram.Profile{Language: string(rune('a' + i)), N: ngram.DefaultN, Grams: []uint32{1}})
			}
			m := mustDetector(t, ps).match(tc.counts, tc.ngrams)
			if tc.wantBest < 0 {
				if !m.Unknown || m.Lang != "" {
					t.Errorf("match(%v, ngrams=%d) = %+v, want no winner", tc.counts, tc.ngrams, m)
				}
				return
			}
			if best, second := winners(tc.counts); best != tc.wantBest || second != tc.wantSecond {
				t.Errorf("winners(%v) = (%d, %d), want (%d, %d)", tc.counts, best, second, tc.wantBest, tc.wantSecond)
			}
			if want := ps.Profiles[tc.wantBest].Language; m.Lang != want {
				t.Errorf("match(%v, ngrams=%d) called %q, want %q", tc.counts, tc.ngrams, m.Lang, want)
			}
		})
	}
}

// TestMatchThresholding drives the match policy through the margin and
// n-gram floors on synthetic counters, including the tie and empty
// cases the legacy API handled implicitly.
func TestMatchThresholding(t *testing.T) {
	ps := trainMini(t, Config{TopT: 500})
	langs := ps.Languages()
	cases := []struct {
		name        string
		opts        []DetectorOption
		counts      []int
		ngrams      int
		wantLang    string
		wantUnknown bool
		wantScore   float64
		wantMargin  float64
	}{
		{
			name:   "confident winner passes default thresholds",
			counts: []int{80, 10, 5, 1}, ngrams: 100,
			wantLang: langs[0], wantScore: 0.8, wantMargin: 0.7,
		},
		{
			name:   "empty document is unknown",
			counts: []int{0, 0, 0, 0}, ngrams: 0,
			wantUnknown: true,
		},
		{
			name:   "exact tie passes with zero margin at default threshold",
			counts: []int{40, 40, 2, 1}, ngrams: 100,
			wantLang: langs[0], wantScore: 0.4, wantMargin: 0,
		},
		{
			name:   "exact tie is unknown under a positive margin floor",
			opts:   []DetectorOption{WithMinMargin(0.05)},
			counts: []int{40, 40, 2, 1}, ngrams: 100,
			wantUnknown: true, wantScore: 0.4, wantMargin: 0,
		},
		{
			name:   "narrow margin below floor is unknown",
			opts:   []DetectorOption{WithMinMargin(0.1)},
			counts: []int{45, 40, 2, 1}, ngrams: 100,
			wantUnknown: true, wantScore: 0.45, wantMargin: 0.05,
		},
		{
			name:   "margin exactly at floor is known",
			opts:   []DetectorOption{WithMinMargin(0.05)},
			counts: []int{45, 40, 2, 1}, ngrams: 100,
			wantLang: langs[0], wantScore: 0.45, wantMargin: 0.05,
		},
		{
			name:   "short document below n-gram floor is unknown",
			opts:   []DetectorOption{WithMinNGrams(20)},
			counts: []int{9, 1, 0, 0}, ngrams: 10,
			wantUnknown: true, wantScore: 0.9, wantMargin: 0.8,
		},
		{
			name:   "all-zero counts still call the first language",
			counts: []int{0, 0, 0, 0}, ngrams: 10,
			wantLang: langs[0], wantScore: 0, wantMargin: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			det, err := NewDetector(ps, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			m := det.match(tc.counts, tc.ngrams)
			if m.Unknown != tc.wantUnknown {
				t.Fatalf("Unknown = %v, want %v (%+v)", m.Unknown, tc.wantUnknown, m)
			}
			if m.Lang != tc.wantLang {
				t.Errorf("Lang = %q, want %q", m.Lang, tc.wantLang)
			}
			if math.Abs(m.Score-tc.wantScore) > 1e-12 || math.Abs(m.Margin-tc.wantMargin) > 1e-12 {
				t.Errorf("Score, Margin = %v, %v; want %v, %v", m.Score, m.Margin, tc.wantScore, tc.wantMargin)
			}
			if m.NGrams != tc.ngrams {
				t.Errorf("NGrams = %d, want %d", m.NGrams, tc.ngrams)
			}
		})
	}
}

// TestMatchSingleLanguageProfileSet covers the one-language corner: no
// runner-up exists, so Margin equals Score and detection still works.
func TestMatchSingleLanguageProfileSet(t *testing.T) {
	corp := getMiniCorpus(t)
	ps, err := TrainFromTexts(Config{TopT: 500}, map[string][][]byte{
		"en": {corp.Test["en"][0].Text, corp.Test["en"][1].Text},
	})
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(ps)
	if err != nil {
		t.Fatal(err)
	}
	m := det.Detect(corp.Test["en"][2].Text)
	if m.Unknown || m.Lang != "en" {
		t.Fatalf("single-language detect = %+v", m)
	}
	if m.Margin != m.Score {
		t.Errorf("Margin = %v, want Score %v with no runner-up", m.Margin, m.Score)
	}
	ranked := det.Rank(corp.Test["en"][2].Text, 0)
	if len(ranked) != 1 || ranked[0].Lang != "en" {
		t.Errorf("single-language rank = %+v", ranked)
	}
}

// TestDetectorAgreesWithLegacyClassifier is the migration guarantee:
// Detect, Rank, DetectBatch and a Stream fed by io.Copy all name the
// same winner as the staged reference (classify) on every non-tie,
// non-unknown document.
func TestDetectorAgreesWithLegacyClassifier(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	corp := getMiniCorpus(t)
	for _, backend := range equivBackends() {
		det, err := NewDetector(ps, withBackend(backend), WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		var docs []corpus.Document
		for _, lang := range []string{"en", "es", "fi", "pt"} {
			docs = append(docs, corp.Test[lang][:4]...)
		}
		batch := det.DetectBatch(corpus.Texts(docs))
		if len(batch) != len(docs) {
			t.Fatalf("%v: %d batch results for %d docs", backend, len(batch), len(docs))
		}
		for i, doc := range docs {
			legacy := classify(det, doc.Text)
			want := bestLanguage(det, legacy)
			best, second := winners(legacy.Counts)
			if want == "" || legacy.Counts[best] == legacy.Counts[second] {
				continue // ties and unknowns are out of scope for the guarantee
			}
			m := det.Detect(doc.Text)
			if m.Unknown || m.Lang != want {
				t.Errorf("%v doc %d: Detect = %+v, legacy winner %q", backend, i, m, want)
			}
			if m.Count != legacy.Counts[best] || m.NGrams != legacy.NGrams {
				t.Errorf("%v doc %d: Detect counts (%d/%d) != legacy (%d/%d)",
					backend, i, m.Count, m.NGrams, legacy.Counts[best], legacy.NGrams)
			}
			if ranked := det.Rank(doc.Text, 1); len(ranked) != 1 || ranked[0].Lang != want {
				t.Errorf("%v doc %d: Rank top = %+v, legacy winner %q", backend, i, ranked, want)
			}
			if batch[i] != m {
				t.Errorf("%v doc %d: DetectBatch %+v != Detect %+v", backend, i, batch[i], m)
			}
			rs := det.NewStream()
			if _, err := io.Copy(rs, bytes.NewReader(doc.Text)); err != nil {
				t.Fatal(err)
			}
			if rm := rs.Match(); rm != m {
				t.Errorf("%v doc %d: io.Copy into a Stream %+v != Detect %+v", backend, i, rm, m)
			}
		}
	}
}

// TestRankOrderingAndTopK checks the full ranking is sorted by count
// with lexicographic tie-break, carries consistent scores, and that
// top-k slices the same order.
func TestRankOrderingAndTopK(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	det, err := NewDetector(ps)
	if err != nil {
		t.Fatal(err)
	}
	doc := getMiniCorpus(t).Test["es"][0].Text
	all := det.Rank(doc, 0)
	if len(all) != len(det.Languages()) {
		t.Fatalf("Rank(0) returned %d entries for %d languages", len(all), len(det.Languages()))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Count > all[i-1].Count {
			t.Errorf("rank not sorted: position %d count %d > position %d count %d",
				i, all[i].Count, i-1, all[i-1].Count)
		}
		if all[i].Count == all[i-1].Count && all[i].Lang < all[i-1].Lang {
			t.Errorf("equal counts not in language order at position %d", i)
		}
	}
	if all[0].Lang != "es" {
		t.Errorf("top ranked %q, want es", all[0].Lang)
	}
	wantMargin := float64(all[0].Count-all[1].Count) / float64(all[0].NGrams)
	if math.Abs(all[0].Margin-wantMargin) > 1e-12 {
		t.Errorf("top margin = %v, want %v", all[0].Margin, wantMargin)
	}
	top2 := det.Rank(doc, 2)
	if len(top2) != 2 || !reflect.DeepEqual(top2, all[:2]) {
		t.Errorf("Rank(2) = %+v, want first two of %+v", top2, all[:2])
	}
	if over := det.Rank(doc, 99); len(over) != len(all) {
		t.Errorf("Rank(99) returned %d entries", len(over))
	}
}

// TestDetectorStream checks the incremental path: chunked writes match
// one-shot Detect, and Reset starts a fresh document.
func TestDetectorStream(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000})
	det, err := NewDetector(ps)
	if err != nil {
		t.Fatal(err)
	}
	corp := getMiniCorpus(t)
	st := det.NewStream()
	for _, lang := range []string{"en", "fi"} {
		doc := corp.Test[lang][0].Text
		st.Reset()
		for i := 0; i < len(doc); i += 7 {
			end := i + 7
			if end > len(doc) {
				end = len(doc)
			}
			st.Write(doc[i:end])
		}
		if got, want := st.Match(), det.Detect(doc); got != want {
			t.Errorf("%s: stream match %+v != detect %+v", lang, got, want)
		}
	}
	st.Reset()
	if m := st.Match(); !m.Unknown || m.NGrams != 0 {
		t.Errorf("fresh stream match = %+v, want unknown", m)
	}
}

// TestDetectZeroAllocations is the hot-path discipline check: a warm
// detector classifies without allocating, on every built-in backend.
func TestDetectZeroAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; CI runs this test again without -race")
	}
	ps := trainMini(t, Config{TopT: 1000})
	doc := getMiniCorpus(t).Test["es"][0].Text
	for _, backend := range equivBackends() {
		det, err := NewDetector(ps, withBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		det.Detect(doc) // warm the scratch pool
		if allocs := testing.AllocsPerRun(200, func() { det.Detect(doc) }); allocs != 0 {
			t.Errorf("%s: Detect allocates %.1f objects per call, want 0", backend, allocs)
		}
		counts := make([]int, 0, len(det.Languages()))
		if allocs := testing.AllocsPerRun(200, func() { counts, _ = det.DetectCounts(counts[:0], doc) }); allocs != 0 {
			t.Errorf("%s: DetectCounts allocates %.1f objects per call, want 0", backend, allocs)
		}
		st := det.NewStream()
		st.Write(doc)
		if allocs := testing.AllocsPerRun(200, func() { counts = st.AppendCounts(counts[:0]) }); allocs != 0 {
			t.Errorf("%s: Stream.AppendCounts allocates %.1f objects per call, want 0", backend, allocs)
		}
		// The /stream line path: a JSON-decoded string document counted
		// without a []byte copy.
		text := string(doc)
		if allocs := testing.AllocsPerRun(200, func() { st.Reset(); io.WriteString(st, text) }); allocs != 0 {
			t.Errorf("%s: Stream WriteString allocates %.1f objects per call, want 0", backend, allocs)
		}
	}
}
