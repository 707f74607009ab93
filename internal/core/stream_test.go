package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// streamMode is one way to build a Stream: whole-document counting
// (NewStream) or segmentation (NewSpanStream). Every stream test runs
// both, because Match and AppendCounts must not depend on the mode.
// Tests on the n = 6 set (sixGramSet) count on the generic
// FeedBytes → AccumulateInto path, the others on the fused loop.
type streamMode struct {
	name      string
	windowed  bool
	newStream func() *Stream
}

func streamModes(t testing.TB, det *Detector) []streamMode {
	t.Helper()
	newSpanStream := func() *Stream {
		s, err := det.NewSpanStream(segTestConfig)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []streamMode{
		{name: "counting", newStream: det.NewStream},
		{name: "segmenting", windowed: true, newStream: newSpanStream},
	}
}

// checkStream asserts a stream fed doc reports Detect's match and the
// raw Classify counts.
func checkStream(t *testing.T, det *Detector, s *Stream, doc []byte, what string) {
	t.Helper()
	if got, want := s.Match(), det.Detect(doc); got != want {
		t.Fatalf("%s: stream match %+v != detect %+v", what, got, want)
	}
	if got, want := s.AppendCounts(nil), classify(det, doc).Counts; !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: stream counts %v != classify %v", what, got, want)
	}
}

func TestStreamMatchesBatch(t *testing.T) {
	det, err := NewDetector(sixGramSet(t))
	if err != nil {
		t.Fatal(err)
	}
	doc := getMiniCorpus(t).Test["es"][0].Text

	// Feed the same document in chunks of varying sizes.
	for _, mode := range streamModes(t, det) {
		for _, chunk := range []int{1, 3, 7, 64, len(doc)} {
			s := mode.newStream()
			for off := 0; off < len(doc); off += chunk {
				end := min(off+chunk, len(doc))
				n, err := s.Write(doc[off:end])
				if err != nil || n != end-off {
					t.Fatalf("%s: Write = %d, %v", mode.name, n, err)
				}
			}
			checkStream(t, det, s, doc, mode.name+"/chunked")
		}
	}
}

func TestStreamImplementsWriter(t *testing.T) {
	det, _ := NewDetector(trainMini(t, Config{TopT: 500}))
	doc := getMiniCorpus(t).Test["en"][0].Text
	for _, mode := range streamModes(t, det) {
		s := mode.newStream()
		var _ io.Writer = s
		var _ io.StringWriter = s
		if _, err := io.Copy(s, bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		if m := s.Match(); m.Lang != "en" {
			t.Errorf("%s: io.Copy path classified as %q", mode.name, m.Lang)
		}
		s.Reset()
		if _, err := io.WriteString(s, string(doc)); err != nil {
			t.Fatal(err)
		}
		checkStream(t, det, s, doc, mode.name+"/io.WriteString")
	}
}

func TestStreamIntermediateResults(t *testing.T) {
	det, _ := NewDetector(sixGramSet(t))
	doc := getMiniCorpus(t).Test["fi"][0].Text
	for _, mode := range streamModes(t, det) {
		s := mode.newStream()
		s.Write(doc[:len(doc)/2])
		mid, midCounts := s.Match(), s.AppendCounts(nil)
		s.Write(doc[len(doc)/2:])
		full, fullCounts := s.Match(), s.AppendCounts(nil)
		if mid.NGrams >= full.NGrams {
			t.Errorf("%s: intermediate result saw as many n-grams as the full document", mode.name)
		}
		if mid.NGrams == 0 {
			t.Errorf("%s: no n-grams at midpoint", mode.name)
		}
		// Counts only grow.
		for i := range midCounts {
			if fullCounts[i] < midCounts[i] {
				t.Errorf("%s: counts decreased as the stream grew", mode.name)
			}
		}
	}
}

// TestStreamReset checks the End-of-Document boundary in both modes:
// after Finish the stream refuses writes, and Reset starts a fresh
// document whose counts carry nothing over. A stream without windowing
// finishes with no spans.
func TestStreamReset(t *testing.T) {
	det, _ := NewDetector(sixGramSet(t))
	docA := getMiniCorpus(t).Test["en"][0].Text
	docB := getMiniCorpus(t).Test["pt"][0].Text
	for _, mode := range streamModes(t, det) {
		s := mode.newStream()
		s.Write(docA)
		if spans := s.Finish(); mode.windowed == (len(spans) == 0) {
			t.Errorf("%s: Finish returned %d spans", mode.name, len(spans))
		}
		if _, err := s.Write(docB); err == nil {
			t.Errorf("%s: Write after Finish succeeded", mode.name)
		}
		if _, err := s.WriteString(string(docB)); err == nil {
			t.Errorf("%s: WriteString after Finish succeeded", mode.name)
		}
		s.Reset()
		s.Write(docB)
		checkStream(t, det, s, docB, mode.name+"/after Reset")
	}
}

func TestStreamEmpty(t *testing.T) {
	det, _ := NewDetector(trainMini(t, Config{TopT: 500}))
	for _, mode := range streamModes(t, det) {
		s := mode.newStream()
		if m := s.Match(); !m.Unknown || m.NGrams != 0 {
			t.Errorf("%s: empty stream match = %+v", mode.name, m)
		}
		if got := s.AppendCounts(nil); !reflect.DeepEqual(got, make([]int, len(det.Languages()))) {
			t.Errorf("%s: empty stream counts = %v", mode.name, got)
		}
		if spans := s.Finish(); len(spans) != 0 {
			t.Errorf("%s: empty stream spans = %+v", mode.name, spans)
		}
	}
}

func TestStreamSubsample(t *testing.T) {
	det, _ := NewDetector(trainMini(t, Config{TopT: 500, Subsample: 2}))
	doc := getMiniCorpus(t).Test["en"][0].Text
	for _, mode := range streamModes(t, det) {
		s := mode.newStream()
		s.Write(doc)
		checkStream(t, det, s, doc, mode.name+"/subsampled")
	}
}

func BenchmarkStreamWrite(b *testing.B) {
	det, err := NewDetector(sixGramSet(b))
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

// TestBorrowStreamAcrossModes: a pooled stream handed back after
// segmenting, finished or not, and borrowed again to count (and the
// reverse) carries nothing over — the counting stream has no spans,
// the segmenting one gives DetectSpans' answer.
func TestBorrowStreamAcrossModes(t *testing.T) {
	det := segDetector(t, BackendDirect)
	doc := append(append([]byte{}, getSegCorpus(t).Test["en"][0].Text...), getSegCorpus(t).Test["fi"][0].Text[:300]...)
	want, err := det.DetectSpans(doc, segTestConfig)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 8 {
		var seg *SegmentConfig
		if i%2 == 0 {
			seg = &segTestConfig
		}
		s, err := det.BorrowStream(seg)
		if err != nil {
			t.Fatal(err)
		}
		s.Write(doc[:len(doc)/2])
		if i%4 == 0 {
			det.ReturnStream(s) // abandoned mid-document
			continue
		}
		if seg == nil && len(s.Spans()) != 0 {
			t.Fatalf("round %d: counting stream has spans %+v", i, s.Spans())
		}
		s.Write(doc[len(doc)/2:])
		checkStream(t, det, s, doc, fmt.Sprintf("round %d", i))
		if got := s.Finish(); seg != nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: spans %+v, want %+v", i, got, want)
		} else if seg == nil && len(got) != 0 {
			t.Fatalf("round %d: counting stream finished with spans %+v", i, got)
		}
		det.ReturnStream(s)
	}
}
