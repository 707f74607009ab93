package ngram

import (
	"bytes"
	"maps"
	"slices"
	"sort"
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

// fullSortTop is the brute-force ranking topT must reproduce: every
// entry, sorted by count descending then packed n-gram ascending, cut
// to the first t.
func fullSortTop[G Gram](counts map[G]uint64, t int) []Entry[G] {
	all := make([]Entry[G], 0, len(counts))
	for g, n := range counts {
		all = append(all, Entry[G]{g, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Gram < all[j].Gram
	})
	return all[:max(0, min(t, len(all)))]
}

// checkTopT compares topT against the full sort at t around the number
// of distinct n-grams d: none, one, d-1, d, and more than d.
func checkTopT[G Gram](t *testing.T, counts map[G]uint64, size int) {
	t.Helper()
	d := len(counts)
	for _, k := range []int{0, 1, d / 2, d - 1, d, d + 1, 2*d + 5} {
		got, want := topT(k, size, maps.All(counts)), fullSortTop(counts, k)
		if !slices.Equal(got, want) {
			t.Fatalf("t=%d of %d distinct: topT %v, full sort %v", k, d, got, want)
		}
	}
}

// FuzzTopT checks the bounded top-t ranking against a brute-force full
// sort. Each 3-byte record of data adds a count to a 16-bit n-gram;
// counts are drawn from 1..levels%8+1, so heavy ties only the packed
// n-gram breaks are the rule, and levels >= 128 lifts them past 32
// bits. Both gram widths are ranked, the wide one with high bits set
// and no size hint: both ways sortEntries sorts are taken.
func FuzzTopT(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0))
	f.Add([]byte{}, uint8(3))
	f.Add(bytes.Repeat([]byte{9, 0, 1, 9, 1, 2, 3, 3, 3}, 30), uint8(1))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, the end"), uint8(7))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 1, 2, 9}, uint8(129))
	f.Fuzz(func(t *testing.T, data []byte, levels uint8) {
		narrow, wide := map[uint32]uint64{}, map[uint64]uint64{}
		for i := 0; i+2 < len(data); i += 3 {
			g := uint32(data[i])<<8 | uint32(data[i+1])
			n := uint64(data[i+2])%(uint64(levels%8)+1) + 1 + uint64(levels>>7)<<32
			narrow[g] += n
			wide[uint64(g)<<40|uint64(g)] += n
		}
		checkTopT(t, narrow, len(narrow))
		checkTopT(t, wide, 0)
	})
}
