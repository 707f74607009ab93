package ngram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
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
		if err := c.AddText(text); err != nil {
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

func TestProfileSerializationRoundTrip(t *testing.T) {
	p := sampleProfile(t)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Language != p.Language || q.N != p.N || len(q.Grams) != len(p.Grams) {
		t.Fatalf("round trip changed metadata: %+v vs %+v", q, p)
	}
	for i := range p.Grams {
		if q.Grams[i] != p.Grams[i] {
			t.Errorf("gram %d differs after round trip", i)
		}
	}
}

// TestProfileCodecLargeProfile round-trips a profile of more n-grams
// than WriteTo's buffer and ReadProfile's first step hold, read in
// short reads: WriteTo reports every byte it wrote, the bytes are the
// format's little-endian words, and Grams come back whole.
func TestProfileCodecLargeProfile(t *testing.T) {
	p := &Profile{Language: strings.Repeat("x", writeChunk+3), N: 4}
	for i := range 3*readStep + 5 {
		p.Grams = append(p.Grams, uint32(i*2654435761)>>12)
	}
	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if n != int64(len(data)) || len(data) != 4+4+len(p.Language)+4+4*len(p.Grams) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, len(data))
	}
	last := data[len(data)-4:]
	if got := binary.LittleEndian.Uint32(last); got != p.Grams[len(p.Grams)-1] {
		t.Fatalf("last word %#x, want %#x", got, p.Grams[len(p.Grams)-1])
	}
	q, err := ReadProfile(iotest.HalfReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if q.Language != p.Language || q.N != p.N || !slices.Equal(q.Grams, p.Grams) {
		t.Fatal("round trip changed the profile")
	}
}

// TestReadProfileTruncatedClaimAllocatesLittle: a 22-byte profile that
// claims 2^26 n-grams fails as truncated having allocated no more than
// a step of Grams, not the 256 MiB its header asks for.
func TestReadProfileTruncatedClaimAllocatesLittle(t *testing.T) {
	data := []byte("NGPF\x01\x04\x02\x00es")
	data = binary.LittleEndian.AppendUint32(data, maxProfileGrams)
	data = append(data, 1, 0, 0, 0, 2, 0, 0, 0)
	if len(data) != 22 {
		t.Fatalf("fixture is %d bytes", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadProfile(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadProfile: %v, want unexpected EOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("ReadProfile allocated %d bytes on a 22-byte input, want at most 1 MiB", alloc)
	}
}

func TestReadProfileRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("XXXX\x01\x04\x00\x00\x00\x00\x00\x00"),
		"truncated": []byte("NGPF\x01"),
	}
	for name, data := range cases {
		if _, err := ReadProfile(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadProfile succeeded, want error", name)
		}
	}
}

func TestReadProfileRejectsBadVersion(t *testing.T) {
	p := sampleProfile(t)
	var buf bytes.Buffer
	p.WriteTo(&buf)
	data := buf.Bytes()
	data[4] = 99 // version byte
	if _, err := ReadProfile(bytes.NewReader(data)); err == nil {
		t.Error("ReadProfile accepted bad version")
	}
}

func TestReadProfileRejectsOverwideGram(t *testing.T) {
	p := &Profile{Language: "xx", N: 2, Grams: []uint32{1 << 20}} // 2-gram is 10 bits
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProfile(&buf); err == nil {
		t.Error("ReadProfile accepted gram wider than packing")
	}
}

func TestBuildProfileDeterministic(t *testing.T) {
	mk := func() *Profile {
		v, _ := NewVocabulary(4)
		c := v.NewCounter()
		c.AddText([]byte("determinism is a property worth testing for always"))
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
