package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

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
	encode := func(profiles ...*ngram.Profile) []byte {
		var buf bytes.Buffer
		if _, err := (&ProfileSet{Config: ps.Config, Profiles: profiles}).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	en, fi := ps.Profiles[0], ps.Profiles[2] // of en, es, fi, pt
	blank := *en
	blank.Language = ""
	// Bare concatenated NGPF records, as langid train wrote before the
	// set format existed.
	var bare bytes.Buffer
	for _, p := range ps.Profiles {
		if _, err := p.WriteTo(&bare); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		data []byte
		want string // substring the actionable message must contain
	}{
		{"empty input", nil, "truncated"},
		{"three-byte file", []byte("NGP"), "NGPS magic"},
		{"garbage without magic", []byte("this is not a profile file at all"), "not the NGPS magic"},
		{"bare NGPF stream", bare.Bytes(), "not the NGPS magic"},
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
