package core

import (
	"reflect"
	"syscall"
	"testing"
)

// TestFusedLoopsReadNothingPastTheDocument puts a document's last byte
// just before a PROT_NONE page, for every length from 0 to 64, and
// counts and segments it on the mask plane's loops (the AVX2 kernel where the
// CPU has it): any read past the document faults. The answers must
// equal those for a copy of the document on the heap.
func TestFusedLoopsReadNothingPastTheDocument(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	det := mustDetector(t, trainMini(t, Config{TopT: 1000}))
	text := getMiniCorpus(t).Test["fi"][0].Text
	seg := SegmentConfig{Window: 64, Stride: 16}
	for n := 0; n <= 64; n++ {
		doc := mem[page-n : page]
		copy(doc, text)
		heap := append([]byte(nil), doc...)
		if got, want := det.Detect(doc), det.Detect(heap); got != want {
			t.Fatalf("%d bytes: Detect %+v, on the heap %+v", n, got, want)
		}
		got, err := det.DetectSpans(doc, seg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := det.DetectSpans(heap, seg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d bytes: spans %+v, on the heap %+v", n, got, want)
		}
	}
}
