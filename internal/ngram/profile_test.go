package ngram

import (
	"slices"
	"strings"
	"testing"
)

// profileFromTexts ranks one language's profile from its training
// texts over a vocabulary of its own, as a one-language training run
// does.
func profileFromTexts(t *testing.T, language string, texts [][]byte, n, top int) *Profile {
	t.Helper()
	v, err := NewVocabulary(n)
	if err != nil {
		t.Fatal(err)
	}
	c := v.NewCounter()
	for _, text := range texts {
		if err := c.addText(text); err != nil {
			t.Fatal(err)
		}
	}
	v.Release()
	return new(Ranker).Profile(language, c, top)
}

func sampleProfile(t *testing.T) *Profile {
	t.Helper()
	texts := [][]byte{
		[]byte("the quick brown fox jumps over the lazy dog"),
		[]byte("pack my box with five dozen liquor jugs"),
		[]byte("the five boxing wizards jump quickly"),
	}
	return profileFromTexts(t, "en", texts, 4, 50)
}

func TestProfileFromTexts(t *testing.T) {
	p := sampleProfile(t)
	if p.Language != "en" || p.N != 4 {
		t.Fatalf("profile metadata wrong: %+v", p)
	}
	if p.Size() == 0 {
		t.Fatal("profile is empty")
	}
	// " THE" must be among the very top: it appears in two documents.
	gs, _ := ExtractBytes([]byte(" the"), 4)
	if !slices.Contains(p.Grams, gs[0]) {
		t.Error("profile missing \" THE\"")
	}
}

func TestProfileTopTCap(t *testing.T) {
	texts := [][]byte{[]byte(strings.Repeat("abcdefghijklmnopqrstuvwxyz ", 20))}
	p := profileFromTexts(t, "xx", texts, 4, 5)
	if p.Size() != 5 {
		t.Errorf("profile size = %d, want capped at 5", p.Size())
	}
}

func TestProfileSetMatchesContains(t *testing.T) {
	p := sampleProfile(t)
	set := p.Set()
	if len(set) != p.Size() {
		t.Fatalf("set size %d != profile size %d (duplicate grams?)", len(set), p.Size())
	}
	for _, g := range p.Grams {
		if !set[g] {
			t.Errorf("Set() lacks profile member %#x", g)
		}
	}
}

func TestBuildProfileDeterministic(t *testing.T) {
	mk := func() *Profile {
		v, _ := NewVocabulary(4)
		c := v.NewCounter()
		c.addText([]byte("determinism is a property worth testing for always"))
		return new(Ranker).Profile("en", c, 10)
	}
	a, b := mk(), mk()
	if len(a.Grams) != len(b.Grams) {
		t.Fatal("profile sizes differ across identical builds")
	}
	for i := range a.Grams {
		if a.Grams[i] != b.Grams[i] {
			t.Errorf("gram %d differs across identical builds", i)
		}
	}
}
