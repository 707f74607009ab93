package core

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// checkStream asserts a stream fed doc reports Detect's match and the
// raw Classify counts.
func checkStream(t *testing.T, det *Detector, s *Stream, doc []byte, what string) {
	t.Helper()
	if got, want := s.Match(), det.Detect(doc); got != want {
		t.Fatalf("%s: stream match %+v != detect %+v", what, got, want)
	}
	if got, want := s.AppendCounts(nil), det.Classifier().Classify(doc).Counts; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: stream counts %v != classify %v", what, got, want)
	}
}

func TestStreamMatchesBatch(t *testing.T) {
	det, err := NewDetector(trainMini(t, Config{TopT: 1000}), WithBackend(BackendBloom))
	if err != nil {
		t.Fatal(err)
	}
	doc := getMiniCorpus(t).Test["es"][0].Text

	// Feed the same document in chunks of varying sizes.
	for _, chunk := range []int{1, 3, 7, 64, len(doc)} {
		s := det.NewStream()
		for off := 0; off < len(doc); off += chunk {
			end := min(off+chunk, len(doc))
			n, err := s.Write(doc[off:end])
			if err != nil || n != end-off {
				t.Fatalf("Write = %d, %v", n, err)
			}
		}
		checkStream(t, det, s, doc, "chunked")
	}
}

func TestStreamImplementsWriter(t *testing.T) {
	det, _ := NewDetector(trainMini(t, Config{TopT: 500}))
	s := det.NewStream()
	var _ io.Writer = s
	doc := getMiniCorpus(t).Test["en"][0].Text
	if _, err := io.Copy(s, bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if m := s.Match(); m.Lang != "en" {
		t.Errorf("io.Copy path classified as %q", m.Lang)
	}
}

func TestStreamIntermediateResults(t *testing.T) {
	det, _ := NewDetector(trainMini(t, Config{TopT: 1000}), WithBackend(BackendBloom))
	doc := getMiniCorpus(t).Test["fi"][0].Text
	s := det.NewStream()
	s.Write(doc[:len(doc)/2])
	mid, midCounts := s.Match(), s.AppendCounts(nil)
	s.Write(doc[len(doc)/2:])
	full, fullCounts := s.Match(), s.AppendCounts(nil)
	if mid.NGrams >= full.NGrams {
		t.Error("intermediate result saw as many n-grams as the full document")
	}
	if mid.NGrams == 0 {
		t.Error("no n-grams at midpoint")
	}
	// Counts only grow.
	for i := range midCounts {
		if fullCounts[i] < midCounts[i] {
			t.Error("counts decreased as the stream grew")
		}
	}
}

func TestStreamReset(t *testing.T) {
	det, _ := NewDetector(trainMini(t, Config{TopT: 1000}), WithBackend(BackendBloom))
	docA := getMiniCorpus(t).Test["en"][0].Text
	docB := getMiniCorpus(t).Test["pt"][0].Text
	s := det.NewStream()
	s.Write(docA)
	s.Reset()
	s.Write(docB)
	checkStream(t, det, s, docB, "after Reset")
}

func TestStreamEmpty(t *testing.T) {
	det, _ := NewDetector(trainMini(t, Config{TopT: 500}))
	s := det.NewStream()
	if m := s.Match(); !m.Unknown || m.NGrams != 0 {
		t.Errorf("empty stream match = %+v", m)
	}
	if got := s.AppendCounts(nil); !reflect.DeepEqual(got, make([]int, len(det.Languages()))) {
		t.Errorf("empty stream counts = %v", got)
	}
}

func TestStreamSubsample(t *testing.T) {
	det, _ := NewDetector(trainMini(t, Config{TopT: 500, Subsample: 2}))
	doc := getMiniCorpus(t).Test["en"][0].Text
	s := det.NewStream()
	s.Write(doc)
	checkStream(t, det, s, doc, "subsampled")
}

func BenchmarkStreamWrite(b *testing.B) {
	det, err := NewDetector(trainMini(b, Config{TopT: 1000}), WithBackend(BackendBloom))
	if err != nil {
		b.Fatal(err)
	}
	doc := getMiniCorpus(b).Test["en"][0].Text
	s := det.NewStream()
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		s.Write(doc)
	}
}
