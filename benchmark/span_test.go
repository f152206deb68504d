package main

import "testing"

// TestSelfTimes: self time is the span minus the part its children cover,
// where children on other lanes overlap (the union counts once).
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Start: 0, End: 100},
		{ID: 1, Parent: 0, Lane: 1, Start: 10, End: 60},
		{ID: 2, Parent: 0, Lane: 2, Start: 40, End: 90}, // overlaps span 1 by 20
		{ID: 3, Parent: 1, Lane: 1, Start: 20, End: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{0: 20, 1: 40, 2: 50, 3: 10} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
}

func TestNilSpanLogIsInert(t *testing.T) {
	var l *spanLog
	ln := l.lane(0, "timed")
	id := ln.begin("x", noSpan)
	ln.end(id)
	if ln != nil || id != noSpan {
		t.Fatalf("nil log handed out lane %v, id %d", ln, id)
	}
}
