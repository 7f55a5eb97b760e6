package main

import (
	"reflect"
	"testing"
	"time"
)

// Self time is a span's duration minus what its children cover;
// overlapping children are counted once, children are clipped to the
// parent, and unclosed spans are ignored.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},   // 0
		{Name: "write", Start: 0, End: 10, Parent: 0},  // 1
		{Name: "await", Start: 10, End: 70, Parent: 0}, // 2
		{Name: "check", Start: 60, End: 90, Parent: 0}, // 3: overlaps await by 10
		{Name: "inner", Start: 20, End: 30, Parent: 2}, // 4: grandchild, only await's
		{Name: "late", Start: 95, End: 120, Parent: 0}, // 5: clipped to the parent's end
		{Name: "open", Start: 50, End: -1, Parent: 0},  // 6: never closed
		{Name: "op", Start: 200, End: 230, Parent: -1}, // 7: a second root, no children
	}
	got := selfTimes(spans)
	want := map[string][]int64{
		"op":    {100 - (10 + 60 + 20 + 5), 30},
		"write": {10},
		"await": {60 - 10},
		"check": {30},
		"inner": {10},
		"late":  {25},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if us := medianSelfUS(map[string][]int64{"x": {3000, 1000, 2000}}, "x"); us != 2 {
		t.Errorf("medianSelfUS = %v, want 2", us)
	}
}

func TestTracerOffIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0, time.Time{})
	tr.end(id, time.Time{})
	if id != -1 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	if err := tr.write(t.TempDir(), "w"); err != nil {
		t.Errorf("nil tracer write: %v", err)
	}
}
