package measure

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := Percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%g = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("no samples must give 0")
	}
	if got := Median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median of an even count = %v, want 4", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {99, 0}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := Tail(c.n); got != c.want {
			t.Errorf("Tail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i)
	}
	sum := Summarize(s)
	if sum.N != 1000 || sum.TailP != 99 || math.Abs(sum.Tail-989.01) > 1e-9 || sum.P50 != 499.5 {
		t.Errorf("summary %+v", sum)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: the union counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // outlasts the parent: clipped
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 25},
	}
	want := map[string]float64{"op": 100 - 50 - 10, "a": 30 - 10, "b": 30, "c": 40, "leaf": 10}
	for name, v := range SelfTimes(spans) {
		if len(v) != 1 || v[0] != want[name] {
			t.Errorf("self time of %s = %v, want %v", name, v, want[name])
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *Recorder // spans off
	off.End(off.Start(1, 0, "x"))
	if off.Spans() != nil {
		t.Fatal("a nil recorder recorded something")
	}
	r := NewRecorder()
	root := r.Start(7, 0, "op")
	child := r.Start(7, root, "layer.call")
	r.End(child)
	added := r.Add(7, root, "stage", time.Now(), time.Millisecond)
	r.End(root)
	spans := r.Spans()
	if len(spans) != 3 || spans[1].Parent != root || spans[added-1].End-spans[added-1].Start != int64(time.Millisecond) {
		t.Fatalf("spans %+v", spans)
	}
	for _, s := range spans {
		if s.Op != 7 || s.End < s.Start {
			t.Fatalf("span %+v", s)
		}
	}
}
