package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestBackendStringParseRoundTrip pins the contract the CLIs rely on:
// every backend's String() parses back to itself,
// and the historical aliases keep working.
func TestBackendStringParseRoundTrip(t *testing.T) {
	for _, b := range []Backend{BackendBloom, BackendDirect} {
		got, err := ParseBackend(b.String())
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", b.String(), err)
		}
		if got != b {
			t.Errorf("ParseBackend(%q) = %v, want %v", b.String(), got, b)
		}
	}
	aliases := map[string]Backend{
		"bloom":  BackendBloom,
		"direct": BackendDirect,
	}
	for name, want := range aliases {
		got, err := ParseBackend(name)
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("ParseBackend(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestParseBackendUnknownNameListsChoices also pins that the deleted
// blocked and classic backends' names no longer parse.
func TestParseBackendUnknownNameListsChoices(t *testing.T) {
	for _, name := range []string{"fpga", "blocked", "classic", "classic-bloom"} {
		_, err := ParseBackend(name)
		if err == nil {
			t.Fatalf("ParseBackend accepted unknown name %q", name)
		}
		for _, known := range []string{"direct-lookup", "parallel-bloom"} {
			if !strings.Contains(err.Error(), known) {
				t.Errorf("error %q does not list %q", err, known)
			}
		}
	}
}

func TestBackendsListsCanonicalNames(t *testing.T) {
	want := []string{"direct-lookup", "parallel-bloom"}
	if names := Backends(); !reflect.DeepEqual(names, want) {
		t.Errorf("Backends() = %v, want %v", names, want)
	}
}

func TestBackendStringUnregisteredValue(t *testing.T) {
	if got := Backend(9999).String(); got != "backend(9999)" {
		t.Errorf("String() = %q", got)
	}
	if _, err := NewDetector(&ProfileSet{Config: DefaultConfig(), Profiles: trainMini(t, Config{TopT: 500}).Profiles}, WithBackend(Backend(9999))); err == nil {
		t.Error("NewDetector accepted an unregistered backend")
	}
}

// FuzzKernelCount is the differential check of the serving path against
// the staged reference on every built-in backend, at subsample 1 and 3:
// the fuzzer's bytes, written to a Stream in three pieces cut at two
// fuzzer-chosen points, must give the counts and n-gram total of
// the staged reference (classify) of the same bytes. A whole-document
// stream and a segmenting one (which cuts each write where a stride of
// n-grams completes) are both checked.
func FuzzKernelCount(f *testing.F) {
	base := trainMini(f, Config{TopT: 800})
	var dets []*Detector
	for _, sub := range []int{1, 3} {
		ps := &ProfileSet{Config: base.Config, Profiles: base.Profiles}
		ps.Config.Subsample = sub
		for _, b := range []Backend{BackendDirect, BackendBloom} {
			d, err := NewDetector(ps, WithBackend(b))
			if err != nil {
				f.Fatal(err)
			}
			dets = append(dets, d)
		}
	}
	f.Add([]byte(""), uint16(0), uint16(0))
	f.Add([]byte("the quick brown fox"), uint16(2), uint16(9))
	f.Add([]byte("\x00\xff un documento tr\xe8s fran\xe7ais \x01\x02"), uint16(7), uint16(3))
	f.Add(getMiniCorpus(f).Test["fi"][0].Text, uint16(301), uint16(1000))
	f.Fuzz(func(t *testing.T, data []byte, cutA, cutB uint16) {
		a, b := int(cutA)%(len(data)+1), int(cutB)%(len(data)+1)
		if a > b {
			a, b = b, a
		}
		for _, d := range dets {
			want := classify(d, data)
			spans, err := d.NewSpanStream(SegmentConfig{Window: 64, Stride: 16})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*Stream{d.NewStream(), spans} {
				s.Write(data[:a])
				s.Write(data[a:b])
				s.Write(data[b:])
				if got, n := s.AppendCounts(nil), s.Match().NGrams; n != want.NGrams || !reflect.DeepEqual(got, want.Counts) {
					t.Fatalf("%s subsample %d, segmenting %v, %d bytes cut at %d,%d: stream counts %v over %d grams; reference %v over %d",
						d.Backend(), d.Config().Subsample, s.cfg.Stride > 0, len(data), a, b, got, n, want.Counts, want.NGrams)
				}
			}
		}
	})
}
