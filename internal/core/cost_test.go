package core_test

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/perflog"
	"repro/internal/suite"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

type discardAppender struct{}

func (discardAppender) Append(string, string, ...*perflog.Entry) error { return nil }

// pipelineRunner runs the whole pipeline with its perflog sink discarded.
func pipelineRunner(t testing.TB) *core.Runner {
	r := core.New(filepath.Join(t.TempDir(), "install"), "")
	r.Log = discardAppender{}
	return r
}

// TestRunAllocsIndependentOfPartition: a run allocates about as much on
// COSMA8's 360 nodes as on ARCHER2's 5 860, and under a fixed bound.
func TestRunAllocsIndependentOfPartition(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const maxSpread, maxAllocs = 10, 800
	r := pipelineRunner(t)
	for _, b := range suite.All() {
		var allocs [2]float64
		for i, system := range []string{"cosma8", "archer2"} {
			allocs[i] = testing.AllocsPerRun(20, func() {
				if _, err := r.RunContext(context.Background(), b, core.Options{System: system}); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%s: %v allocs on cosma8, %v on archer2", b.Name(), allocs[0], allocs[1])
		if d := allocs[1] - allocs[0]; d > maxSpread || d < -maxSpread || max(allocs[0], allocs[1]) > maxAllocs {
			t.Errorf("%s: %v allocs on cosma8, %v on archer2; want within %d of each other and at most %d",
				b.Name(), allocs[0], allocs[1], maxSpread, maxAllocs)
		}
	}
}

// BenchmarkRunPipeline times RunContext with a discarded sink over the
// twelve system × benchmark targets the end-to-end benchmark submits,
// one target per op in turn.
func BenchmarkRunPipeline(b *testing.B) {
	r := pipelineRunner(b)
	type target struct {
		b      core.Benchmark
		system string
	}
	var targets []target
	for _, system := range []string{"archer2", "cosma8", "csd3", "noctua2"} {
		for _, bench := range suite.All() {
			targets = append(targets, target{bench, system})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg := targets[i%len(targets)]
		if _, err := r.RunContext(context.Background(), tg.b, core.Options{System: tg.system}); err != nil {
			b.Fatal(err)
		}
	}
}
