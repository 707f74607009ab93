package bloom_test

// Tests of the §3.3 wide classifier through its exported API; the wide
// n-grams it trains and tests are checked in wide_internal_test.go.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"bloomlang/internal/alphabet"
	"bloomlang/internal/bloom"
	"bloomlang/internal/core"
)

// Training snippets in scripts the 5-bit pipeline cannot represent:
// Greek, Russian and Ukrainian Cyrillic, plus English for contrast.
var wideTraining = map[string][]string{
	"el": {
		"το συμβούλιο θεσπίζει τα αναγκαία μέτρα για την εφαρμογή του παρόντος κανονισμού",
		"η επιτροπή υποβάλλει έκθεση στο ευρωπαϊκό κοινοβούλιο και στο συμβούλιο",
		"τα κράτη μέλη θέτουν σε ισχύ τις αναγκαίες νομοθετικές και κανονιστικές διατάξεις",
		"ο παρών κανονισμός αρχίζει να ισχύει την εικοστή ημέρα από τη δημοσίευσή του",
	},
	"ru": {
		"совет принимает необходимые меры для применения настоящего регламента",
		"комиссия представляет доклад европейскому парламенту и совету",
		"государства члены вводят в действие необходимые законодательные положения",
		"настоящий регламент вступает в силу на двадцатый день после его опубликования",
	},
	"uk": {
		"рада вживає необхідних заходів для застосування цього регламенту",
		"комісія подає доповідь європейському парламенту та раді",
		"держави члени вводять в дію необхідні законодавчі положення",
		"цей регламент набирає чинності на двадцятий день після його опублікування",
	},
	"en": {
		"the council shall adopt the measures necessary for the application of this regulation",
		"the commission shall submit a report to the european parliament and to the council",
		"member states shall bring into force the necessary laws and regulations",
		"this regulation shall enter into force on the twentieth day following its publication",
	},
}

func wideClassifier(t *testing.T) *bloom.WideClassifier {
	t.Helper()
	cfg := core.Config{N: 3, TopT: 2000, K: 4, MBits: 16 * 1024, Seed: 9}
	c, err := bloom.TrainWide(cfg, wideTraining)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTrainWideValidation(t *testing.T) {
	if _, err := bloom.TrainWide(core.Config{}, nil); err == nil {
		t.Error("TrainWide with no languages succeeded")
	}
	if _, err := bloom.TrainWide(core.Config{N: 5}, wideTraining); err == nil {
		t.Error("TrainWide with n=5 (80-bit grams) succeeded")
	}
	if _, err := bloom.TrainWide(core.Config{MBits: 1000}, wideTraining); err == nil {
		t.Error("TrainWide with bad m succeeded")
	}
	if _, err := bloom.TrainWide(core.Config{}, map[string][]string{"el": nil}); err == nil {
		t.Error("TrainWide with empty language succeeded")
	}
}

// TestTrainWideRejectsInvalidConfig: TrainWide validates its Config as
// the trainer does, and refuses subsampling, which the wide
// classifier never does, instead of ignoring it.
func TestTrainWideRejectsInvalidConfig(t *testing.T) {
	for _, c := range []struct {
		cfg  core.Config
		want string
	}{
		{core.Config{TopT: -5}, "profile size"},
		{core.Config{K: -1}, "k="},
		{core.Config{N: -2}, "n="},
		{core.Config{Subsample: -2}, "subsample"},
		{core.Config{Subsample: 3}, "subsample"},
		{core.Config{N: 5}, "wide n="},
		{core.Config{MBits: 1000}, "power of two"},
	} {
		_, err := bloom.TrainWide(c.cfg, wideTraining)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("TrainWide(%+v) error = %v, want one naming %q", c.cfg, err, c.want)
		}
	}
	if _, err := bloom.TrainWide(core.Config{Subsample: 1}, wideTraining); err != nil {
		t.Errorf("TrainWide with subsample 1: %v", err)
	}
}

// wideProbes are the five probe texts of examples/unicode.
var wideProbes = []string{
	"το ευρωπαϊκό κοινοβούλιο θεσπίζει μέτρα για την εφαρμογή",
	"европейский парламент принимает меры для применения",
	"європейський парламент вживає заходів для застосування",
	"европейският парламент приема мерки за прилагането",
	"the european parliament shall adopt measures for the application",
}

// TestWideCountsGolden pins the wide classifier bit for bit at 48- and
// 64-bit hash inputs (n = 3 and 4): the counts, in Languages() order
// (el, en, ru, uk), were recorded from the dedicated 64-bit H3 and
// Bloom types the wide path ran on before they were folded into
// h3.Func and bloom.Parallel.
func TestWideCountsGolden(t *testing.T) {
	golden := map[int][]bloom.Result{
		3: {
			{NGrams: 54, Counts: []int{53, 0, 0, 0}},
			{NGrams: 49, Counts: []int{0, 0, 45, 21}},
			{NGrams: 52, Counts: []int{0, 0, 27, 47}},
			{NGrams: 48, Counts: []int{0, 0, 26, 15}},
			{NGrams: 62, Counts: []int{0, 59, 0, 0}},
		},
		4: {
			{NGrams: 53, Counts: []int{51, 0, 0, 0}},
			{NGrams: 48, Counts: []int{0, 0, 40, 14}},
			{NGrams: 51, Counts: []int{0, 0, 16, 42}},
			{NGrams: 47, Counts: []int{0, 0, 18, 12}},
			{NGrams: 61, Counts: []int{0, 55, 0, 0}},
		},
	}
	for n, want := range golden {
		c, err := bloom.TrainWide(core.Config{N: n, TopT: 2000, K: 4, MBits: 16 * 1024, Seed: 9}, wideTraining)
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range wideProbes {
			r := c.Classify(text)
			if r.NGrams != want[i].NGrams || !slices.Equal(r.Counts, want[i].Counts) {
				t.Errorf("n=%d probe %d: %d n-grams, counts %v; golden %d, %v", n, i, r.NGrams, r.Counts, want[i].NGrams, want[i].Counts)
			}
		}
	}
}

func TestWideClassifyScripts(t *testing.T) {
	c := wideClassifier(t)
	cases := map[string]string{
		"el": "το ευρωπαϊκό κοινοβούλιο και το συμβούλιο θεσπίζουν μέτρα για την εφαρμογή",
		"ru": "европейский парламент и совет принимают меры для применения регламента",
		"uk": "європейський парламент та рада вживають заходів для застосування регламенту",
		"en": "the european parliament and the council shall adopt measures for the application",
	}
	for want, text := range cases {
		r := c.Classify(text)
		if got := r.BestLanguage(c.Languages()); got != want {
			t.Errorf("classified %q text as %q (counts %v)", want, got, r.Counts)
		}
	}
}

func TestWideClassifySeparatesCloseCyrillic(t *testing.T) {
	// Russian and Ukrainian share the script but differ in letters like
	// і/ї/є vs и/ы/э; the 16-bit alphabet preserves that signal.
	c := wideClassifier(t)
	r := c.Classify("держави члени вводять в дію необхідні положення цього регламенту")
	if got := r.BestLanguage(c.Languages()); got != "uk" {
		t.Errorf("Ukrainian text classified as %q", got)
	}
}

func TestWideClassifyEmpty(t *testing.T) {
	c := wideClassifier(t)
	r := c.Classify("")
	if r.BestLanguage(c.Languages()) != "" || r.NGrams != 0 {
		t.Errorf("empty text result = %+v", r)
	}
	// Digits map to white space, and windows of pure white space are
	// still n-grams (the pipeline is oblivious to word boundaries, like
	// the narrow path): 11 runes give 9 trigrams, each three spaces,
	// which no training text holds.
	r = c.Classify("12345 67 89")
	ngrams, counts := wideReference(c, "12345 67 89")
	if r.NGrams != 9 || ngrams != 9 || !slices.Equal(r.Counts, counts) || !slices.Equal(counts, []int{0, 0, 0, 0}) {
		t.Errorf("letterless text: %d n-grams, counts %v; reference %d, %v", r.NGrams, r.Counts, ngrams, counts)
	}
	if got := r.BestLanguage(c.Languages()); got != "" {
		t.Errorf("letterless text matched no language but is classified as %q", got)
	}
}

// wideReference counts text's wide n-grams, and per language, in
// c.Languages() order, how many of them occur in its wideTraining
// texts: the counts a Bloom filter without false positives gives.
func wideReference(c *bloom.WideClassifier, text string) (int, []int) {
	n := c.Config().N
	grams := func(s string) []string {
		codes := alphabet.TranslateWide(s)
		var out []string
		for i := 0; i+n <= len(codes); i++ {
			out = append(out, fmt.Sprint(codes[i:i+n]))
		}
		return out
	}
	doc := grams(text)
	counts := make([]int, len(c.Languages()))
	for i, lang := range c.Languages() {
		seen := map[string]bool{}
		for _, t := range wideTraining[lang] {
			for _, g := range grams(t) {
				seen[g] = true
			}
		}
		for _, g := range doc {
			if seen[g] {
				counts[i]++
			}
		}
	}
	return len(doc), counts
}

func TestWideCaseFolding(t *testing.T) {
	c := wideClassifier(t)
	lower := c.Classify("το συμβούλιο θεσπίζει τα αναγκαία μέτρα για την εφαρμογή")
	upper := c.Classify("ΤΟ ΣΥΜΒΟΎΛΙΟ ΘΕΣΠΊΖΕΙ ΤΑ ΑΝΑΓΚΑΊΑ ΜΈΤΡΑ ΓΙΑ ΤΗΝ ΕΦΑΡΜΟΓΉ")
	if lower.BestLanguage(c.Languages()) != upper.BestLanguage(c.Languages()) {
		t.Error("case changed the wide classification")
	}
}

func TestWideLanguagesSorted(t *testing.T) {
	c := wideClassifier(t)
	langs := c.Languages()
	want := []string{"el", "en", "ru", "uk"}
	for i := range want {
		if langs[i] != want[i] {
			t.Fatalf("Languages() = %v, want %v", langs, want)
		}
	}
}

func TestWideNoFalseNegativesOnTraining(t *testing.T) {
	// Every training document must classify as its own language: the
	// profiles contain its top n-grams and Bloom filters cannot lose
	// them.
	c := wideClassifier(t)
	for lang, texts := range wideTraining {
		for i, text := range texts {
			r := c.Classify(text)
			if got := r.BestLanguage(c.Languages()); got != lang {
				t.Errorf("%s training doc %d classified as %q", lang, i, got)
			}
		}
	}
}

// TestResultMarginAndWinners pins the wide result's winner rules: the
// most matches wins, ties break to the lower index, and the margin is
// the lead over the runner-up.
func TestResultMarginAndWinners(t *testing.T) {
	langs := []string{"a", "b", "c"}
	r := bloom.Result{Counts: []int{5, 9, 3}, NGrams: 10}
	if got := r.BestLanguage(langs); got != "b" {
		t.Errorf("winner = %q, want b", got)
	}
	if r.Margin() != 4 {
		t.Errorf("margin = %d, want 4", r.Margin())
	}
	// Tie breaks to the lower index.
	r2 := bloom.Result{Counts: []int{7, 7}, NGrams: 5}
	if got := r2.BestLanguage(langs); got != "a" || r2.Margin() != 0 {
		t.Errorf("tie winner = %q margin %d, want a and 0", got, r2.Margin())
	}
	// No n-grams, no winner; one language, no runner-up.
	if got := (bloom.Result{Counts: []int{0, 0}}).BestLanguage(langs); got != "" {
		t.Errorf("empty document winner = %q", got)
	}
	if m := (bloom.Result{Counts: []int{6}, NGrams: 10}).Margin(); m != 0 {
		t.Errorf("single-language margin = %d, want 0", m)
	}
}

func BenchmarkWideClassify(b *testing.B) {
	cfg := core.Config{N: 3, TopT: 2000, K: 4, MBits: 16 * 1024, Seed: 9}
	c, err := bloom.TrainWide(cfg, wideTraining)
	if err != nil {
		b.Fatal(err)
	}
	text := strings.Repeat("европейский парламент и совет принимают меры ", 50)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(text)
	}
}
