package gen

import (
	"math"
	"reflect"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, b := NewCorpus(7, 500), NewCorpus(7, 500)
	for i := 0; i < a.N; i++ {
		if a.Entry(i).Line() != b.Entry(i).Line() {
			t.Fatalf("entry %d differs between two corpora of one seed", i)
		}
	}
	ops := func(c *Corpus) []Op {
		s := NewSequence(7, c)
		out := s.Runs(30)
		out = append(out, s.Queries(20, 10, 4)...)
		return append(out, s.Cycles(6)...)
	}
	if !reflect.DeepEqual(ops(a), ops(b)) {
		t.Fatal("request sequences differ between two builders of one seed")
	}
	if c := NewCorpus(8, 500); c.Entry(0).Line() == a.Entry(0).Line() {
		t.Fatal("a different seed gave the same first entry")
	}
}

// The seed may change values and keys but not the cost of an input:
// every seed spreads entries evenly over the files, and a unique window
// admits exactly the entries its cacheable form admits.
func TestSeedDoesNotChangeCost(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := NewCorpus(seed, 1500)
		perFile := map[string]int{}
		for i := 0; i < c.N; i++ {
			e := c.Entry(i)
			perFile[e.System+"/"+e.Benchmark]++
		}
		if len(perFile) != 15 {
			t.Fatalf("seed %d: %d files, want 15", seed, len(perFile))
		}
		for f, n := range perFile {
			if n != 100 {
				t.Fatalf("seed %d: file %s holds %d entries, want 100", seed, f, n)
			}
		}
	}
}

func TestQueriesInterleaveEvenly(t *testing.T) {
	ops := NewSequence(1, NewCorpus(1, 1000)).Queries(100, 50, 10)
	if len(ops) != 160 {
		t.Fatalf("%d ops, want 160", len(ops))
	}
	// Any prefix holds each class in proportion, to within one op.
	var seen [kinds]int
	seenPath := map[string]bool{}
	for i, op := range ops {
		seen[op.Kind]++
		for k, want := range map[Kind]float64{Select: 100, Aggregate: 50, Regress: 10} {
			if share := want * float64(i+1) / 160; math.Abs(float64(seen[k])-share) > 1 {
				t.Fatalf("after %d ops: %d %ss, want about %.1f", i+1, seen[k], k, share)
			}
		}
		if op.Kind != Select {
			if seenPath[op.Path] {
				t.Fatalf("cache key repeated: %s", op.Path)
			}
			seenPath[op.Path] = true
		}
	}
}

func TestCyclesUseCacheableKeys(t *testing.T) {
	ops := NewSequence(1, NewCorpus(1, 1000)).Cycles(6)
	paths := map[string]int{}
	runs := 0
	for _, op := range ops {
		if op.Kind == Submit {
			runs++
		} else {
			paths[op.Path]++
		}
	}
	// 3 windows + the select + the regression: five distinct reads,
	// repeated every cycle.
	if runs != 6 || len(paths) != 5 {
		t.Fatalf("%d runs, %d distinct read paths; want 6 and 5", runs, len(paths))
	}
}

func TestModelMean(t *testing.T) {
	c := NewCorpus(3, 300)
	m := NewModel(c)
	m.AddLive("archer2", 10)
	m.AddLive("archer2", 20)
	mean, count := m.Mean(150)
	var sum float64
	n := 0
	for i := 150; i < c.N; i++ {
		if c.System(i) == "archer2" {
			sum += c.L0[i]
			n++
		}
	}
	if count["archer2"] != n+2 {
		t.Fatalf("count %d, want %d", count["archer2"], n+2)
	}
	if want := (sum + 30) / float64(n+2); math.Abs(mean["archer2"]-want) > 1e-12*want {
		t.Fatalf("mean %v, want %v", mean["archer2"], want)
	}
}
