package ngram

import (
	"bytes"
	"slices"
	"testing"

	"bloomlang/internal/alphabet"
)

// FuzzReadProfile hardens the deserializer against malformed input: it
// must never panic, and anything it accepts must round-trip.
func FuzzReadProfile(f *testing.F) {
	// Seed with a valid serialized profile and some mutations.
	p := &Profile{Language: "es", N: 4, Grams: []uint32{1, 2, 0xFFFFF}}
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("NGPF"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadProfile(bytes.NewReader(data))
		if err != nil {
			return // rejected, fine
		}
		// Accepted: must survive a round trip unchanged.
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted profile failed to serialize: %v", err)
		}
		back, err := ReadProfile(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Language != got.Language || back.N != got.N || len(back.Grams) != len(got.Grams) {
			t.Fatal("round trip changed the profile")
		}
	})
}

// FuzzExtractBytes checks the extractor on arbitrary byte streams: the
// n-gram count invariant must hold for any input, and the fused
// byte-level window must give exactly the n-grams of the staged
// reference, translation first and the code-level window after it.
func FuzzExtractBytes(f *testing.F) {
	f.Add([]byte("hello world"), 4)
	f.Add([]byte{}, 1)
	f.Add([]byte{0xFF, 0x00, 0xC3, 0x7F}, 6)
	f.Add([]byte("\x80\x9f\xa0\xc0\xc9\xd0\xdf\xe0\xe9\xf1\xfc\xff caf\xe9 \xc3\xa9t\xc3\xa9"), 3)
	f.Fuzz(func(t *testing.T, text []byte, n int) {
		gs, err := ExtractBytes(text, n)
		if err != nil {
			if n >= 1 && n <= MaxN {
				t.Fatalf("valid n=%d rejected: %v", n, err)
			}
			return
		}
		if len(gs) != Count(len(text), n) {
			t.Fatalf("extracted %d n-grams from %d bytes at n=%d, want %d",
				len(gs), len(text), n, Count(len(text), n))
		}
		mask := uint64(1)<<Bits(n) - 1
		for _, g := range gs {
			if uint64(g) > mask {
				t.Fatalf("gram %#x exceeds %d-bit packing", g, Bits(n))
			}
		}
		if want := (&Window{N: n}).Feed(nil, alphabet.TranslateAll(text)); !slices.Equal(gs, want) {
			t.Fatalf("n=%d: ExtractBytes %v, staged reference %v", n, gs, want)
		}
	})
}
