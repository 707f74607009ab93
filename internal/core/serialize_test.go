package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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

func TestProfileSetSaveLoadFile(t *testing.T) {
	ps := trainMini(t, Config{TopT: 500})
	path := filepath.Join(t.TempDir(), "profiles.bin")
	if err := ps.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfileSetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config != ps.Config || len(got.Profiles) != len(ps.Profiles) {
		t.Errorf("file round-trip mismatch: %+v", got.Config)
	}
}

func TestReadProfileSetLegacyFormat(t *testing.T) {
	// Bare concatenated NGPF records, as older cmd/langid train wrote.
	ps := trainMini(t, Config{TopT: 300})
	var buf bytes.Buffer
	for _, p := range ps.Profiles {
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadProfileSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Profiles) != len(ps.Profiles) {
		t.Fatalf("legacy read: got %d profiles, want %d", len(got.Profiles), len(ps.Profiles))
	}
	if got.Config.N != ps.Config.N {
		t.Errorf("legacy read: config n=%d, want %d", got.Config.N, ps.Config.N)
	}
	for i, p := range ps.Profiles {
		if !reflect.DeepEqual(got.Profiles[i].Grams, p.Grams) {
			t.Errorf("legacy profile %q did not round-trip", p.Language)
		}
	}
}

// TestReadProfileSetLegacyCutAfterMagic: a legacy stream that ends
// inside a record, after that record's magic, is damaged, not a clean
// end of the stream after the records before it.
func TestReadProfileSetLegacyCutAfterMagic(t *testing.T) {
	ps := trainMini(t, Config{TopT: 300})
	var buf bytes.Buffer
	if _, err := ps.Profiles[0].WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{"NGPF", "NGPF\x01\x04"} {
		data := append(bytes.Clone(buf.Bytes()), tail...)
		_, err := ReadProfileSet(bytes.NewReader(data))
		if !errors.Is(err, ErrCorruptProfiles) || !strings.Contains(err.Error(), "damaged after 1 profiles") {
			t.Errorf("legacy stream ending in %q: %v, want damaged after 1 profile", tail, err)
		}
	}
}

// TestReadProfileSetVersion2Fixture loads an NGPS version-2 file,
// written with the embedded filter layout of a since-removed backend,
// and checks it against its version-1 rewrite: the rewrite is the file
// up to the layout section under version byte 1, and it reads back to
// the same Config, the same Profiles and the same detections.
func TestReadProfileSetVersion2Fixture(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "profiles_v2_blocked.ngps"))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := ReadProfileSet(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.Languages(); !reflect.DeepEqual(got, []string{"en", "es", "fi"}) {
		t.Fatalf("fixture languages = %v", got)
	}
	var v1 bytes.Buffer
	if _, err := ps.WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	if v1.Len() >= len(v2) {
		t.Fatalf("v1 rewrite is %d bytes, v2 file only %d", v1.Len(), len(v2))
	}
	want := append([]byte(nil), v2[:v1.Len()]...)
	want[len(profileSetMagic)] = profileSetVersion
	if !bytes.Equal(v1.Bytes(), want) {
		t.Error("v1 rewrite is not the v2 file without its layout section")
	}
	rewritten, err := ReadProfileSet(&v1)
	if err != nil {
		t.Fatal(err)
	}
	if rewritten.Config != ps.Config {
		t.Errorf("config: v2 %+v, v1 rewrite %+v", ps.Config, rewritten.Config)
	}
	if !reflect.DeepEqual(rewritten.Profiles, ps.Profiles) {
		t.Error("profiles differ between the v2 file and its v1 rewrite")
	}
	corp := getMiniCorpus(t)
	for _, backend := range equivBackends() {
		a, err := NewDetector(ps, withBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewDetector(rewritten, withBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		for _, lang := range []string{"en", "es", "fi", "pt"} {
			for _, doc := range corp.Test[lang][:3] {
				ca, ma := a.DetectCounts(nil, doc.Text)
				cb, mb := b.DetectCounts(nil, doc.Text)
				if ma != mb || !reflect.DeepEqual(ca, cb) {
					t.Errorf("%s %s: v2 %+v %v, v1 rewrite %+v %v", backend, lang, ma, ca, mb, cb)
				}
			}
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
	cases := []struct {
		name string
		data []byte
		want string // substring the actionable message must contain
	}{
		{"empty input", nil, "truncated"},
		{"three-byte file", []byte("NGP"), "NGPS magic"},
		{"garbage without magic", []byte("this is not a profile file at all"), "neither an NGPS profile set nor a legacy NGPF"},
		{"header cut after magic", []byte("NGPS"), "truncated after the magic"},
		{"header cut in config length", []byte("NGPS\x01\x10"), "config length"},
		{"config length overflow", hugeCfgLen, "refusing"},
		{"config truncated", append([]byte("NGPS\x01"), 0x10, 0, 0, 0, '{'), "config truncated"},
		{"config not JSON", append([]byte("NGPS\x01"), 0x02, 0, 0, 0, 'h', 'i'), "not valid JSON"},
		{"cut before profile count", v1.Bytes()[:bytes.IndexByte(v1.Bytes(), '}')+1], "profile count"},
		{"profile record truncated", v1.Bytes()[:v1.Len()-10], "reading profile"},
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
	// An unsupported version is a version error, not corruption.
	bumped := append([]byte("NGPS\x07"), v1.Bytes()[5:]...)
	_, err := ReadProfileSet(bytes.NewReader(bumped))
	if err == nil || !strings.Contains(err.Error(), "version 7") {
		t.Errorf("version bump error = %v, want an unsupported-version message", err)
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
