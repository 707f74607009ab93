package core

import (
	"reflect"
	"testing"
)

// FuzzDetectSpans is the differential guarantee for segmentation: on
// any input the fuzzer invents, both backends' spans equal the
// brute-force reference Viterbi's (referenceSpans) under a horizon over
// the whole input, the paper's parallel-bloom backend's spans agree
// with the exact direct-table backend's wherever the decision is
// confident, and both satisfy the structural invariants (spans tile
// the document, Unknown ⇔ empty language).
//
// Exact agreement everywhere would be too strong to fuzz: a Bloom
// backend may only err towards false positives, so on near-tied
// regions (adversarial byte soup where every language counts ~0) a
// single false positive can legitimately flip an arg-max. The
// comparison therefore skips positions where either backend's span is
// Unknown or carries a sub-0.1 mean margin — at the mini profiles'
// modelled false-positive rate (~10⁻⁵ per probe) false positives
// cannot bridge a 0.1-normalized-margin lead — and skips positions
// within one stride-plus-window of a boundary in either segmentation,
// since confirmed boundaries may land up to a stride apart.
func FuzzDetectSpans(f *testing.F) {
	ps := trainMini(f, Config{TopT: 800})
	direct, err := NewDetector(ps, withBackend(BackendDirect))
	if err != nil {
		f.Fatal(err)
	}
	parallel, err := NewDetector(ps, withBackend(backendBloom))
	if err != nil {
		f.Fatal(err)
	}
	cfg := SegmentConfig{Window: 64, Stride: 16, Penalty: 8}
	corp := getMiniCorpus(f)
	for _, lang := range []string{"en", "es", "fi", "pt"} {
		f.Add(corp.Test[lang][0].Text)
	}
	mixed := append(append([]byte{}, corp.Test["en"][1].Text...), corp.Test["fi"][1].Text...)
	f.Add(mixed)
	f.Add([]byte(""))
	f.Add([]byte("\x00\xff un documento tr\xe8s fran\xe7ais \x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if whole := wholeDocument(cfg); len(data) < whole.Window {
			for _, det := range []*Detector{direct, parallel} {
				got, err := det.DetectSpans(data, whole)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceSpans(t, det, data, whole); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s spans\n%+v\nreference\n%+v", det.Backend(), got, want)
				}
			}
		}
		ds, err := direct.DetectSpans(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := parallel.DetectSpans(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fuzzCheckSpanInvariants(t, "direct", ds, len(data))
		fuzzCheckSpanInvariants(t, "parallel-bloom", bs, len(data))
		// Boundaries may shift by up to a stride between backends;
		// compare labels only at positions a full window clear of every
		// boundary in either segmentation.
		guard := (cfg.Window + cfg.Stride) * 1 // bytes per gram = 1 at subsample 1
		for pos := 0; pos < len(data); pos += cfg.Stride {
			dSpan, ok1 := spanAt(ds, pos)
			bSpan, ok2 := spanAt(bs, pos)
			if !ok1 || !ok2 {
				t.Fatalf("position %d not covered by spans", pos)
			}
			if dSpan.Unknown || bSpan.Unknown || dSpan.Margin < 0.1 || bSpan.Margin < 0.1 {
				continue
			}
			if nearBoundary(ds, pos, guard, len(data)) || nearBoundary(bs, pos, guard, len(data)) {
				continue
			}
			if dSpan.Lang != bSpan.Lang {
				t.Fatalf("position %d: parallel-bloom span language %q (margin %.3f) disagrees with direct %q (margin %.3f)\nparallel-bloom: %+v\ndirect: %+v",
					pos, bSpan.Lang, bSpan.Margin, dSpan.Lang, dSpan.Margin, bs, ds)
			}
		}
	})
}

func fuzzCheckSpanInvariants(t *testing.T, name string, spans []Span, docLen int) {
	t.Helper()
	if docLen == 0 {
		if len(spans) != 0 {
			t.Fatalf("%s: empty document produced spans %+v", name, spans)
		}
		return
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans for %d bytes", name, docLen)
	}
	if spans[0].Start != 0 || spans[len(spans)-1].End != docLen {
		t.Fatalf("%s: spans do not cover [0,%d): %+v", name, docLen, spans)
	}
	for i, sp := range spans {
		if sp.Start >= sp.End {
			t.Fatalf("%s: span %d empty or inverted: %+v", name, i, sp)
		}
		if i > 0 && sp.Start != spans[i-1].End {
			t.Fatalf("%s: span %d leaves a gap or overlap: %+v", name, i, spans)
		}
		if sp.Unknown != (sp.Lang == "") {
			t.Fatalf("%s: span %d Unknown=%v with Lang=%q", name, i, sp.Unknown, sp.Lang)
		}
	}
}

// spanAt returns the span covering byte position pos.
func spanAt(spans []Span, pos int) (Span, bool) {
	for _, sp := range spans {
		if pos >= sp.Start && pos < sp.End {
			return sp, true
		}
	}
	return Span{}, false
}

// nearBoundary reports whether pos lies within tol bytes of any
// interior span boundary (document edges do not count).
func nearBoundary(spans []Span, pos, tol, docLen int) bool {
	for _, sp := range spans {
		for _, edge := range [2]int{sp.Start, sp.End} {
			if edge == 0 || edge == docLen {
				continue
			}
			d := pos - edge
			if d < 0 {
				d = -d
			}
			if d < tol {
				return true
			}
		}
	}
	return false
}
