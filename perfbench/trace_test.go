package main

import "testing"

func TestSelfTimeOverOverlappingChildren(t *testing.T) {
	spans := []span{
		{id: 1, name: "parent", start: 0, end: 100},
		// Two children overlap on [30,40); one runs past the parent.
		{id: 2, parent: 1, name: "a", start: 10, end: 40},
		{id: 3, parent: 1, name: "b", start: 30, end: 60},
		{id: 4, parent: 1, name: "c", start: 90, end: 120},
		// A grandchild counts against its own parent only.
		{id: 5, parent: 2, name: "d", start: 15, end: 25},
		// A child wholly inside another adds nothing.
		{id: 6, parent: 1, name: "e", start: 32, end: 35},
		// Another request's root is unrelated.
		{id: 7, name: "other", start: 0, end: 50},
	}
	self := selfTimes(spans)
	// Covered: [10,60) ∪ [90,100) = 60 of 100.
	for id, want := range map[int64]int64{1: 40, 2: 20, 3: 30, 4: 30, 5: 10, 6: 3, 7: 50} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerCapsSpans(t *testing.T) {
	tr := newTracer(3)
	tr.add(span{id: 1}, span{id: 2})
	tr.add(span{id: 3}, span{id: 4})
	if len(tr.spans) != 3 || !tr.capped {
		t.Fatalf("kept %d spans (capped %t), want 3 and capped", len(tr.spans), tr.capped)
	}
}
