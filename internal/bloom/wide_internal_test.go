package bloom

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
		gs, err := extractWide(c.text, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if len(gs) != c.want {
			t.Errorf("extractWide(%q, %d) = %d grams, want %d", c.text, c.n, len(gs), c.want)
		}
	}
}

func TestWideExtractorRunesNotBytes(t *testing.T) {
	// "αβ" is four UTF-8 bytes but two runes: exactly one wide 2-gram.
	gs, err := extractWide("αβ", 2)
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
	if _, err := newWideExtractor(0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := newWideExtractor(5); err == nil {
		t.Error("n=5 accepted (80 bits)")
	}
	if _, err := newWideExtractor(4); err != nil {
		t.Errorf("n=4 rejected: %v", err)
	}
}

func TestWideExtractorFullWidthMask(t *testing.T) {
	// n=4 uses all 64 bits; the window must not lose the oldest char
	// prematurely nor keep a fifth.
	e, err := newWideExtractor(4)
	if err != nil {
		t.Fatal(err)
	}
	codes := alphabet.TranslateWide("abcde")
	gs := e.feed(nil, codes)
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
	e, _ := newWideExtractor(3)
	a := e.feed(nil, alphabet.TranslateWide("αβγ"))
	e.reset()
	b := e.feed(nil, alphabet.TranslateWide("αβγ"))
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Error("reset did not restore initial state")
	}
}

func TestWideProfileFromTexts(t *testing.T) {
	grams, err := wideProfile([]string{
		"το συμβούλιο θεσπίζει τα μέτρα",
		"το κοινοβούλιο και το συμβούλιο",
	}, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(grams) == 0 || len(grams) > 50 {
		t.Errorf("size = %d", len(grams))
	}
}

// TestWideProfileMatchesFullSort: the wide profile is the first t of a
// full sort of its counts, count descending then packed n-gram
// ascending, at every t from none to more than the distinct n-grams:
// it keeps min(t, distinct) n-grams, each ranking ahead of the next,
// and every n-gram it leaves out ranks after the last it keeps.
func TestWideProfileMatchesFullSort(t *testing.T) {
	texts := []string{
		"το συμβούλιο θεσπίζει τα μέτρα, το κοινοβούλιο και το συμβούλιο",
		"европейский парламент принимает регламент",
		"aaaa abab abab baba",
	}
	for n := 1; n <= maxWideN; n++ {
		counts := map[uint64]int{}
		for _, text := range texts {
			gs, _ := extractWide(text, n)
			for _, g := range gs {
				counts[g]++
			}
		}
		// ahead reports whether g ranks ahead of h.
		ahead := func(g, h uint64) bool {
			return counts[g] > counts[h] || counts[g] == counts[h] && g < h
		}
		for _, k := range []int{0, 1, 7, len(counts) - 1, len(counts), len(counts) + 3} {
			grams, err := wideProfile(texts, n, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(grams) != min(k, len(counts)) {
				t.Fatalf("n=%d t=%d: kept %d n-grams of %d distinct", n, k, len(grams), len(counts))
			}
			kept := map[uint64]bool{}
			for i, g := range grams {
				kept[g] = true
				if counts[g] == 0 || i > 0 && !ahead(grams[i-1], g) {
					t.Fatalf("n=%d t=%d: profile %v out of order at %d", n, k, grams, i)
				}
			}
			for g := range counts {
				if !kept[g] && len(grams) > 0 && ahead(g, grams[len(grams)-1]) {
					t.Errorf("n=%d t=%d: left out %#x, which ranks ahead of the last kept", n, k, g)
				}
			}
		}
	}
}

func TestWideProfileValidation(t *testing.T) {
	if _, err := wideProfile([]string{"abc"}, 9, 10); err == nil {
		t.Error("n=9 accepted")
	}
}

func TestWideProfileDeterministic(t *testing.T) {
	texts := []string{"европейский парламент принимает регламент"}
	a, _ := wideProfile(texts, 3, 20)
	b, _ := wideProfile(texts, 3, 20)
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatal("order differs between identical builds")
	}
}

func TestWideBitsFor(t *testing.T) {
	if wideBitsFor(4) != 64 || wideBitsFor(2) != 32 {
		t.Error("wideBitsFor wrong")
	}
}
