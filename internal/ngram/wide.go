package ngram

import (
	"fmt"

	"bloomlang/internal/alphabet"
)

// Wide n-gram machinery for the §3.3 Unicode extension: n-grams of
// 16-bit characters packed into uint64 (so n <= 4), counted with a map
// instead of a flat table — the very point of the extension is that a
// direct lookup table over a 16-bit alphabet would be astronomically
// large while the Bloom filter only needs a wider hash input. The
// packed word is that input: the same bloom.Parallel takes it through
// Program64 and Test64, which hash it with h3.Func's Hash64.

// MaxWideN is the largest wide n-gram length that packs into 64 bits.
const MaxWideN = 64 / alphabet.WideBits // 4

// WideBitsFor returns the packed width of a wide n-gram of length n.
func WideBitsFor(n int) uint { return uint(n) * alphabet.WideBits }

// WideExtractor slides a window of n 16-bit codes over a rune stream.
type WideExtractor struct {
	n      int
	mask   uint64
	window uint64
	filled int
}

// NewWideExtractor returns an extractor for wide n-grams of length n.
func NewWideExtractor(n int) (*WideExtractor, error) {
	if n < 1 || n > MaxWideN {
		return nil, fmt.Errorf("ngram: wide length %d out of range [1,%d]", n, MaxWideN)
	}
	var mask uint64
	if WideBitsFor(n) == 64 {
		mask = ^uint64(0)
	} else {
		mask = uint64(1)<<WideBitsFor(n) - 1
	}
	return &WideExtractor{n: n, mask: mask}, nil
}

// Reset clears the window.
func (e *WideExtractor) Reset() {
	e.window = 0
	e.filled = 0
}

// Feed shifts codes into the window, appending complete n-grams to dst.
func (e *WideExtractor) Feed(dst []uint64, codes []alphabet.WideCode) []uint64 {
	for _, c := range codes {
		e.window = (e.window<<alphabet.WideBits | uint64(c)) & e.mask
		if e.filled < e.n-1 {
			e.filled++
			continue
		}
		dst = append(dst, e.window)
	}
	return dst
}

// ExtractWide translates UTF-8 text and returns its packed wide
// n-grams.
func ExtractWide(text string, n int) ([]uint64, error) {
	e, err := NewWideExtractor(n)
	if err != nil {
		return nil, err
	}
	return e.Feed(nil, alphabet.TranslateWide(text)), nil
}

// WideProfile is a language profile over wide n-grams.
type WideProfile struct {
	Language string
	N        int
	Grams    []uint64
}

// Size returns the profile's n-gram count.
func (p *WideProfile) Size() int { return len(p.Grams) }

// WideProfileFromTexts builds a wide profile from UTF-8 training texts.
func WideProfileFromTexts(language string, texts []string, n, t int) (*WideProfile, error) {
	if n < 1 || n > MaxWideN {
		return nil, fmt.Errorf("ngram: wide length %d out of range [1,%d]", n, MaxWideN)
	}
	counts := make(map[uint64]uint64)
	for _, text := range texts {
		gs, err := ExtractWide(text, n)
		if err != nil {
			return nil, err
		}
		for _, g := range gs {
			counts[g]++
		}
	}
	p := &WideProfile{Language: language, N: n}
	for _, e := range topWide(counts, t) {
		p.Grams = append(p.Grams, e.Gram)
	}
	return p, nil
}

// topWide ranks wide n-gram counts through the ranking Counter.Top
// uses: the t best, best first.
func topWide(counts map[uint64]uint64, t int) []Entry[uint64] {
	grams, ns := make([]uint64, 0, len(counts)), make([]uint64, 0, len(counts))
	for g, n := range counts {
		grams, ns = append(grams, g), append(ns, n)
	}
	return rank(new(scratch[uint64]), grams, ns, t)
}
