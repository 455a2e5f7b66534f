package scheduler

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// submitWait is one run's use of the simulator: a fresh scheduler over
// the partition, one one-node job submitted and waited for.
func submitWait(nodes int) error {
	s, err := NewSim("slurm", nodes, 128, fixedExec(time.Second))
	if err != nil {
		return err
	}
	id, err := s.Submit(&Job{Name: "babelstream-omp", NumTasks: 1, TasksPerNode: 1})
	if err != nil {
		return err
	}
	_, err = s.Wait(id)
	return err
}

// TestSimCostIndependentOfPoolSize: a one-node job allocates the same
// count and the same bytes on a 4-node pool as on ARCHER2's 5 860.
func TestSimCostIndependentOfPoolSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const runs = 100
	var allocs [2]float64
	var bytes [2]uint64
	for i, nodes := range []int{4, 5860} {
		allocs[i] = testing.AllocsPerRun(runs, func() {
			if err := submitWait(nodes); err != nil {
				t.Fatal(err)
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			submitWait(nodes)
		}
		runtime.ReadMemStats(&after)
		bytes[i] = (after.TotalAlloc - before.TotalAlloc) / runs
	}
	if allocs[0] != allocs[1] || bytes[0] != bytes[1] {
		t.Errorf("4 nodes: %v allocs, %d B; 5860 nodes: %v allocs, %d B; want equal", allocs[0], bytes[0], allocs[1], bytes[1])
	}
}

// BenchmarkSimSubmitWait times one run's use of the simulator on pools
// of the smallest test partition, COSMA8 and ARCHER2.
func BenchmarkSimSubmitWait(b *testing.B) {
	for _, nodes := range []int{4, 360, 5860} {
		b.Run(fmt.Sprint(nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := submitWait(nodes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
