package ngram

import (
	"slices"
	"testing"

	"bloomlang/internal/alphabet"
)

func TestWideExtractorCount(t *testing.T) {
	for _, c := range []struct {
		text string
		n    int
		want int
	}{
		{"", 2, 0},
		{"α", 2, 0},
		{"αβ", 2, 1},
		{"αβγ", 2, 2},
		{"αβγδ", 4, 1},
		{"hello", 3, 3},
	} {
		gs, err := ExtractWide(c.text, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if len(gs) != c.want {
			t.Errorf("ExtractWide(%q, %d) = %d grams, want %d", c.text, c.n, len(gs), c.want)
		}
	}
}

func TestWideExtractorRunesNotBytes(t *testing.T) {
	// "αβ" is four UTF-8 bytes but two runes: exactly one wide 2-gram.
	gs, err := ExtractWide("αβ", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 1 {
		t.Fatalf("got %d grams, want 1", len(gs))
	}
	// The packed gram is uppercase Α (0x391) << 16 | uppercase Β (0x392).
	want := uint64(0x0391)<<16 | 0x0392
	if gs[0] != want {
		t.Errorf("packed gram = %#x, want %#x", gs[0], want)
	}
}

func TestWideExtractorValidation(t *testing.T) {
	if _, err := NewWideExtractor(0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewWideExtractor(5); err == nil {
		t.Error("n=5 accepted (80 bits)")
	}
	if _, err := NewWideExtractor(4); err != nil {
		t.Errorf("n=4 rejected: %v", err)
	}
}

func TestWideExtractorFullWidthMask(t *testing.T) {
	// n=4 uses all 64 bits; the window must not lose the oldest char
	// prematurely nor keep a fifth.
	e, err := NewWideExtractor(4)
	if err != nil {
		t.Fatal(err)
	}
	codes := alphabet.TranslateWide("abcde")
	gs := e.Feed(nil, codes)
	if len(gs) != 2 {
		t.Fatalf("got %d grams, want 2", len(gs))
	}
	// Second gram is BCDE: B,C,D,E upper-cased 16-bit codes.
	want := uint64('B')<<48 | uint64('C')<<32 | uint64('D')<<16 | uint64('E')
	if gs[1] != want {
		t.Errorf("gram = %#x, want %#x", gs[1], want)
	}
}

func TestWideExtractorReset(t *testing.T) {
	e, _ := NewWideExtractor(3)
	a := e.Feed(nil, alphabet.TranslateWide("αβγ"))
	e.Reset()
	b := e.Feed(nil, alphabet.TranslateWide("αβγ"))
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Error("Reset did not restore initial state")
	}
}

func TestWideProfileFromTexts(t *testing.T) {
	p, err := WideProfileFromTexts("el", []string{
		"το συμβούλιο θεσπίζει τα μέτρα",
		"το κοινοβούλιο και το συμβούλιο",
	}, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if p.Language != "el" || p.N != 3 {
		t.Fatalf("metadata wrong: %+v", p)
	}
	if p.Size() == 0 || p.Size() > 50 {
		t.Errorf("size = %d", p.Size())
	}
}

// TestWideProfileMatchesFullSort: the wide profile is the first t of a
// full sort of its counts, count descending then packed n-gram
// ascending, at every t from none to more than the distinct n-grams.
func TestWideProfileMatchesFullSort(t *testing.T) {
	texts := []string{
		"το συμβούλιο θεσπίζει τα μέτρα, το κοινοβούλιο και το συμβούλιο",
		"европейский парламент принимает регламент",
		"aaaa abab abab baba",
	}
	for n := 1; n <= MaxWideN; n++ {
		counts := map[uint64]uint64{}
		for _, text := range texts {
			gs, _ := ExtractWide(text, n)
			for _, g := range gs {
				counts[g]++
			}
		}
		for _, k := range []int{0, 1, 7, len(counts) - 1, len(counts), len(counts) + 3} {
			p, err := WideProfileFromTexts("xx", texts, n, k)
			if err != nil {
				t.Fatal(err)
			}
			var want []uint64
			for _, e := range fullSortTop(counts, k) {
				want = append(want, e.Gram)
			}
			if !slices.Equal(p.Grams, want) {
				t.Errorf("n=%d t=%d: wide profile %v, full sort %v", n, k, p.Grams, want)
			}
		}
	}
}

func TestWideProfileValidation(t *testing.T) {
	if _, err := WideProfileFromTexts("x", []string{"abc"}, 9, 10); err == nil {
		t.Error("n=9 accepted")
	}
}

func TestWideProfileDeterministic(t *testing.T) {
	texts := []string{"европейский парламент принимает регламент"}
	a, _ := WideProfileFromTexts("ru", texts, 3, 20)
	b, _ := WideProfileFromTexts("ru", texts, 3, 20)
	if len(a.Grams) != len(b.Grams) {
		t.Fatal("sizes differ")
	}
	for i := range a.Grams {
		if a.Grams[i] != b.Grams[i] {
			t.Fatal("order differs between identical builds")
		}
	}
}

func TestWideBitsFor(t *testing.T) {
	if WideBitsFor(4) != 64 || WideBitsFor(2) != 32 {
		t.Error("WideBitsFor wrong")
	}
}
