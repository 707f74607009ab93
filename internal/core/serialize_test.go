package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"bloomlang/internal/ngram"
)

func TestProfileSetRoundTrip(t *testing.T) {
	cfg := Config{N: 4, TopT: 800, K: 6, MBits: 8 * 1024, Seed: 42, Subsample: 2}
	ps := trainMini(t, cfg)

	var buf bytes.Buffer
	n, err := ps.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	got, err := ReadProfileSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config != ps.Config {
		t.Errorf("config round-trip: got %+v, want %+v", got.Config, ps.Config)
	}
	if len(got.Profiles) != len(ps.Profiles) {
		t.Fatalf("got %d profiles, want %d", len(got.Profiles), len(ps.Profiles))
	}
	for i, p := range ps.Profiles {
		q := got.Profiles[i]
		if q.Language != p.Language || q.N != p.N || !reflect.DeepEqual(q.Grams, p.Grams) {
			t.Errorf("profile %q did not round-trip", p.Language)
		}
	}
}

func TestProfileSetRoundTripProducesIdenticalClassifier(t *testing.T) {
	ps := trainMini(t, Config{TopT: 1000, Seed: 9})
	var buf bytes.Buffer
	if _, err := ps.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadProfileSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := NewDetector(ps, withBackend(backendBloom))
	if err != nil {
		t.Fatal(err)
	}
	fromDisk, err := NewDetector(loaded, withBackend(backendBloom))
	if err != nil {
		t.Fatal(err)
	}
	for _, lang := range []string{"en", "es", "fi", "pt"} {
		doc := getMiniCorpus(t).Test[lang][0].Text
		a, b := classify(orig, doc), classify(fromDisk, doc)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: classifier from reloaded profiles disagrees: %+v vs %+v", lang, a, b)
		}
	}
}

// TestReadProfileSetCorruptInputs pins the actionable-error contract:
// every malformed input fails with a wrapped ErrCorruptProfiles whose
// message names the structure that failed to parse, instead of a raw
// binary-read error.
func TestReadProfileSetCorruptInputs(t *testing.T) {
	ps := trainMini(t, Config{TopT: 200})
	var v1 bytes.Buffer
	if _, err := ps.WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	hugeCfgLen := append([]byte("NGPS\x01"), []byte{0xff, 0xff, 0xff, 0xff}...)
	// encode writes a version-1 set of the given profiles, in the given
	// order, as no trainer would.
	encodeUnder := func(cfg Config, profiles ...*ngram.Profile) []byte {
		var buf bytes.Buffer
		if _, err := (&ProfileSet{Config: cfg, Profiles: profiles}).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	encode := func(profiles ...*ngram.Profile) []byte { return encodeUnder(ps.Config, profiles...) }
	en, fi := ps.Profiles[0], ps.Profiles[2] // of en, es, fi, pt
	blank, three, wide := *en, *en, *en
	blank.Language = ""
	three.N = 3
	wide.Grams = append(slices.Clip(en.Grams), 1<<ngram.Bits(en.N))
	badM := ps.Config
	badM.MBits = 3000
	// Bare concatenated NGPF records, as langid train wrote before the
	// set format existed.
	bare := recordsOf(t, ps.Profiles...)
	cases := []struct {
		name string
		data []byte
		want string // substring the actionable message must contain
	}{
		{"empty input", nil, "truncated"},
		{"three-byte file", []byte("NGP"), "NGPS magic"},
		{"garbage without magic", []byte("this is not a profile file at all"), "not the NGPS magic"},
		{"bare NGPF stream", bare, "not the NGPS magic"},
		{"header cut after magic", []byte("NGPS"), "truncated after the magic"},
		{"header cut in config length", []byte("NGPS\x01\x10"), "config length"},
		{"config length overflow", hugeCfgLen, "refusing"},
		{"config truncated", append([]byte("NGPS\x01"), 0x10, 0, 0, 0, '{'), "config truncated"},
		{"config not JSON", append([]byte("NGPS\x01"), 0x02, 0, 0, 0, 'h', 'i'), "not valid JSON"},
		{"cut before profile count", v1.Bytes()[:bytes.IndexByte(v1.Bytes(), '}')+1], "profile count"},
		{"profile record truncated", v1.Bytes()[:v1.Len()-10], "reading profile"},
		{"languages out of order", encode(fi, en), "increasing order"},
		{"language repeated", encode(en, fi, fi), "increasing order"},
		{"empty language code", encode(&blank, fi), "non-empty"},
		{"profile n differs from the set's", encode(&three, fi), "n=3"},
		{"config invalid", encodeUnder(badM, en, fi), "config invalid"},
		{"no profiles", encode(), "empty profile set"},
		{"n-gram outside the n-bit space", encode(&wide), "outside the 20-bit n=4 space"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadProfileSet(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if !errors.Is(err, ErrCorruptProfiles) {
				t.Errorf("error %v is not tagged ErrCorruptProfiles", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// An unsupported version is a version error, not corruption: 2 is
	// the layout of a since-removed backend, 7 one no build wrote.
	for _, version := range []byte{2, 7} {
		bumped := append([]byte{'N', 'G', 'P', 'S', version}, v1.Bytes()[5:]...)
		_, err := ReadProfileSet(bytes.NewReader(bumped))
		if err == nil || errors.Is(err, ErrCorruptProfiles) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) {
			t.Errorf("version %d error = %v, want an unsupported-version message", version, err)
		}
	}
}

func TestReadProfileSetErrors(t *testing.T) {
	ps := trainMini(t, Config{TopT: 200})
	var full bytes.Buffer
	if _, err := ps.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        nil,
		"bad magic":    []byte("XXXXjunkjunkjunk"),
		"truncated":    full.Bytes()[:full.Len()/2],
		"version bump": append([]byte("NGPS\xff"), full.Bytes()[5:]...),
	}
	for name, data := range cases {
		if _, err := ReadProfileSet(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadProfileSet accepted malformed input", name)
		}
	}
}

func TestReadProfileSetRejectsMismatchedN(t *testing.T) {
	// A set whose header says n=4 but whose profiles were built with
	// n=3 must be rejected on read, not silently misclassify later.
	threeGram := trainMini(t, Config{N: 3, TopT: 200})
	mixed := &ProfileSet{Config: DefaultConfig(), Profiles: threeGram.Profiles}
	var buf bytes.Buffer
	if _, err := mixed.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := ReadProfileSet(&buf)
	if err == nil || !strings.Contains(err.Error(), "n=") {
		t.Errorf("mismatched profile n not rejected: %v", err)
	}
	if !errors.Is(err, ErrCorruptProfiles) {
		t.Errorf("mismatched profile n error %v is not tagged ErrCorruptProfiles", err)
	}
}

// FuzzReadProfileSet: no input panics the reader, and every input it
// accepts holds non-empty, strictly increasing languages, every profile
// at the set's n, and goes back through WriteTo to the same set.
func FuzzReadProfileSet(f *testing.F) {
	var buf bytes.Buffer
	if _, err := trainMini(f, Config{TopT: 20}).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data), len(data) - 1, len(data) / 2, 10, 5, 4, 0} {
		f.Add(data[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := ReadProfileSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, p := range ps.Profiles {
			if p.N != ps.Config.N {
				t.Errorf("profile %q has n=%d in a set at n=%d", p.Language, p.N, ps.Config.N)
			}
			if p.Language == "" || i > 0 && p.Language <= ps.Profiles[i-1].Language {
				t.Errorf("profile %d language %q accepted after %v", i, p.Language, ps.Languages()[:i])
			}
		}
		var out bytes.Buffer
		if _, err := ps.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadProfileSet(&out)
		if err != nil {
			t.Fatalf("rewritten set refused: %v", err)
		}
		if !reflect.DeepEqual(back, ps) {
			t.Errorf("rewritten set reads back as %+v, want %+v", back, ps)
		}
	})
}

// recordsOf returns the NGPF records of profiles: the bytes WriteTo
// writes for a set of them, after the set's header.
func recordsOf(tb testing.TB, profiles ...*ngram.Profile) []byte {
	tb.Helper()
	ps := &ProfileSet{Profiles: profiles}
	var buf bytes.Buffer
	if _, err := ps.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()[headerSize(tb, ps.Config):]
}

// headerSize is the size of the NGPS header of a set under cfg.
func headerSize(tb testing.TB, cfg Config) int {
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return len(profileSetMagic) + 1 + 4 + len(cfgJSON) + 4
}

// sampleProfile is a small English 4-gram profile.
func sampleProfile(t *testing.T) *ngram.Profile {
	t.Helper()
	ps, err := trainTexts(Config{N: 4, TopT: 50}, map[string][][]byte{"en": {
		[]byte("the quick brown fox jumps over the lazy dog"),
		[]byte("pack my box with five dozen liquor jugs"),
		[]byte("the five boxing wizards jump quickly"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return ps.Profiles[0]
}

func TestProfileSerializationRoundTrip(t *testing.T) {
	p := sampleProfile(t)
	q, err := readProfile(bytes.NewReader(recordsOf(t, p)))
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

// TestProfileCodecLargeProfile round-trips a set of one profile of more
// n-grams than WriteTo's buffer and readProfile's first step hold, read
// in short reads: WriteTo reports every byte it wrote, the bytes are
// the format's little-endian words, and Grams come back whole.
func TestProfileCodecLargeProfile(t *testing.T) {
	p := &ngram.Profile{Language: strings.Repeat("x", writeChunk+3), N: 4}
	for i := range 3*readStep + 5 {
		p.Grams = append(p.Grams, uint32(i*2654435761)>>12)
	}
	ps := &ProfileSet{Config: DefaultConfig(), Profiles: []*ngram.Profile{p}}
	var buf bytes.Buffer
	n, err := ps.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if n != int64(len(data)) || len(data) != headerSize(t, ps.Config)+4+4+len(p.Language)+4+4*len(p.Grams) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, len(data))
	}
	last := data[len(data)-4:]
	if got := binary.LittleEndian.Uint32(last); got != p.Grams[len(p.Grams)-1] {
		t.Fatalf("last word %#x, want %#x", got, p.Grams[len(p.Grams)-1])
	}
	back, err := ReadProfileSet(iotest.HalfReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if q := back.Profiles[0]; len(back.Profiles) != 1 || q.Language != p.Language || q.N != p.N || !slices.Equal(q.Grams, p.Grams) {
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
	_, err := readProfile(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("readProfile: %v, want unexpected EOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("readProfile allocated %d bytes on a 22-byte input, want at most 1 MiB", alloc)
	}
}

// TestReadProfileSetTruncatedClaimsAllocateLittle: a set header's
// claims cost memory only as the bytes behind them arrive. A 20-byte
// file that claims 65536 profiles and a 9-byte one that claims a 1 MiB
// config each fail as corrupt having allocated under 64 KiB, not the
// profile table or the config buffer their headers ask for.
func TestReadProfileSetTruncatedClaimsAllocateLittle(t *testing.T) {
	manyProfiles := []byte("NGPS\x01\x02\x00\x00\x00{}")
	manyProfiles = binary.LittleEndian.AppendUint32(manyProfiles, maxProfileCount)
	manyProfiles = append(manyProfiles, "NGPF\x01"...)
	bigConfig := binary.LittleEndian.AppendUint32([]byte("NGPS\x01"), maxConfigJSON)
	for name, data := range map[string][]byte{"65536 profiles": manyProfiles, "1 MiB config": bigConfig} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadProfileSet(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptProfiles) {
			t.Errorf("%s: ReadProfileSet: %v, want a corrupt-profiles error", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
			t.Errorf("%s: ReadProfileSet allocated %d bytes on a %d-byte input, want under 64 KiB", name, alloc, len(data))
		}
	}
}

func TestReadProfileRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("XXXX\x01\x04\x00\x00\x00\x00\x00\x00"),
		"truncated": []byte("NGPF\x01"),
	}
	for name, data := range cases {
		if _, err := readProfile(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: readProfile succeeded, want error", name)
		}
	}
}

func TestReadProfileRejectsBadVersion(t *testing.T) {
	data := recordsOf(t, sampleProfile(t))
	data[4] = 99 // version byte
	if _, err := readProfile(bytes.NewReader(data)); err == nil {
		t.Error("readProfile accepted bad version")
	}
}

func TestReadProfileRejectsOverwideGram(t *testing.T) {
	p := &ngram.Profile{Language: "xx", N: 2, Grams: []uint32{1 << 20}} // 2-gram is 10 bits
	var buf bytes.Buffer
	if _, err := (&ProfileSet{Config: Config{N: 2}, Profiles: []*ngram.Profile{p}}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProfileSet(&buf); !errors.Is(err, ErrCorruptProfiles) {
		t.Errorf("ReadProfileSet of a gram wider than packing: %v, want ErrCorruptProfiles", err)
	}
}

// FuzzReadProfile hardens the record reader against malformed input:
// it must never panic, and anything it accepts must round-trip.
func FuzzReadProfile(f *testing.F) {
	// Seed with a valid serialized profile and some mutations.
	f.Add(recordsOf(f, &ngram.Profile{Language: "es", N: 4, Grams: []uint32{1, 2, 0xFFFFF}}))
	f.Add([]byte("NGPF"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readProfile(bytes.NewReader(data))
		if err != nil {
			return // rejected, fine
		}
		// Accepted: must survive a round trip unchanged.
		back, err := readProfile(bytes.NewReader(recordsOf(t, got)))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Language != got.Language || back.N != got.N || !slices.Equal(back.Grams, got.Grams) {
			t.Fatal("round trip changed the profile")
		}
	})
}
