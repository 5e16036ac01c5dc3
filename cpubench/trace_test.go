package main

import (
	"testing"
	"time"
)

// TestSelfCPU pins the self-time arithmetic: a span's self time is its
// duration minus the part of it its children cover, overlapping children
// counted once and children reaching outside it clipped to it.
func TestSelfCPU(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", CPU0: 0, CPU1: 100},
		{ID: 2, Parent: 1, Name: "a", CPU0: 10, CPU1: 30},
		{ID: 3, Parent: 1, Name: "b", CPU0: 20, CPU1: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", CPU0: 90, CPU1: 120}, // reaches past op
		{ID: 5, Parent: 3, Name: "d", CPU0: 25, CPU1: 35},  // inside b
		{ID: 6, Parent: 3, Name: "e", CPU0: 30, CPU1: 40},  // overlaps d
		{ID: 7, Name: "other", CPU0: 200, CPU1: 260},
	}
	want := []time.Duration{
		100 - (50 - 10) - (100 - 90), // op: children cover [10,50) and [90,100)
		20,                           // a: no children
		30 - (40 - 25),               // b: d and e cover [25,40)
		30,                           // c
		10,                           // d
		10,                           // e
		60,                           // other
	}
	got := selfCPU(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

// TestTracerNesting checks that recorded spans nest in CPU time and
// that a nil tracer records nothing.
func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	outer := tr.start("op", "", 1, 0)
	inner := tr.start("run", "x/none", 1, outer)
	burn(2 * time.Millisecond)
	tr.end(inner)
	tr.end(outer)
	o, i := tr.spans[outer-1], tr.spans[inner-1]
	if i.Parent != outer || i.Op != 1 || i.CPU0 < o.CPU0 || i.CPU1 > o.CPU1 || i.cpu() < 2*time.Millisecond {
		t.Fatalf("spans do not nest: outer %+v inner %+v", o, i)
	}
	self := selfCPU(tr.spans)
	if self[outer-1] != o.cpu()-i.cpu() {
		t.Errorf("outer self %v, want %v", self[outer-1], o.cpu()-i.cpu())
	}
	var none *tracer
	if id := none.start("op", "", 1, 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	none.end(0)
}
