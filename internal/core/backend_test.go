package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestBackendStringUnregisteredValue pins the deprecated entry points
// to core's one built-in backend: ParseBackend and New accept its name
// and refuse any other, the paper's parallel-bloom included, which only
// the root bloomlang package resolves.
func TestBackendStringUnregisteredValue(t *testing.T) {
	if got, err := ParseBackend(BackendDirect.String()); err != nil || got != BackendDirect {
		t.Errorf("ParseBackend(%q) = %q, %v", BackendDirect, got, err)
	}
	ps := trainMini(t, Config{TopT: 500})
	for _, name := range []Backend{"backend(9999)", backendBloom} {
		if _, err := ParseBackend(string(name)); err == nil || !strings.Contains(err.Error(), "direct-lookup") {
			t.Errorf("ParseBackend(%q) error = %v, want one naming direct-lookup", name, err)
		}
		if _, err := New(ps, name); err == nil {
			t.Errorf("New accepted backend %q", name)
		}
	}
	if d, err := New(ps, BackendDirect); err != nil || d.Backend() != BackendDirect {
		t.Errorf("New(direct-lookup) = %v, %v", d, err)
	}
}

// FuzzKernelCount is the differential check of the serving path against
// the staged reference on every backend of the matrix and on core's
// exact kernel at n = 6 (the generic FeedBytes → AccumulateInto path),
// at subsample 1 and 3:
// the fuzzer's bytes, written to a Stream in three pieces cut at two
// fuzzer-chosen points, must give the counts and n-gram total of
// the staged reference (classify) of the same bytes. A whole-document
// stream and a segmenting one (which cuts each write where a stride of
// n-grams completes) are both checked.
func FuzzKernelCount(f *testing.F) {
	base, six := trainMini(f, Config{TopT: 800}), sixGramSet(f)
	var dets []*Detector
	for _, sub := range []int{1, 3} {
		ps := &ProfileSet{Config: base.Config, Profiles: base.Profiles}
		ps.Config.Subsample = sub
		for _, b := range equivBackends() {
			dets = append(dets, mustDetector(f, ps, withBackend(b)))
		}
		ps6 := &ProfileSet{Config: six.Config, Profiles: six.Profiles}
		ps6.Config.Subsample = sub
		dets = append(dets, mustDetector(f, ps6))
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
						rowName(d), d.Config().Subsample, s.cfg.Stride > 0, len(data), a, b, got, n, want.Counts, want.NGrams)
				}
			}
		}
	})
}
