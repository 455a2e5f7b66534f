package hpgmg

import (
	"math"
	"testing"
)

// serialVCycles runs the plain V-cycle loop (no FMG) on the serial
// solver, mirroring the distributed algorithm exactly.
func serialVCycles(k, cycles int) *Solver {
	s, err := NewSolver(k)
	if err != nil {
		panic(err)
	}
	s.Workers = 1
	setManufacturedRHS(s.Fine())
	for c := 0; c < cycles; c++ {
		s.vcycle(0)
	}
	return s
}

func TestDistributedBitIdenticalToSerial(t *testing.T) {
	// The distributed V-cycle uses global red-black colouring with ghost
	// exchange between colours and agglomerates the coarse hierarchy, so
	// its arithmetic is point-for-point the same as the serial solver's.
	// After the same number of cycles the solutions must agree to
	// rounding noise.
	const k, cycles = 4, 3
	serial := serialVCycles(k, cycles)
	_, got, err := RunDistributedSolution(k, 3, cycles, 0) // tol 0: run all cycles
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Fine().u
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-13 {
			t.Fatalf("solutions differ at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestDistributedConvergesAcrossRankCounts(t *testing.T) {
	for _, ranks := range []int{1, 2, 4, 7} {
		res, err := RunDistributed(5, ranks, 30, 1e-9)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if !res.Converged {
			t.Errorf("ranks=%d: residual %g after %d cycles", ranks, res.Residual, res.Cycles)
		}
		if res.MDOFs <= 0 || res.Ranks != ranks {
			t.Errorf("ranks=%d: result %+v", ranks, res)
		}
	}
}

func TestDistributedSameCyclesAnyRankCount(t *testing.T) {
	// Numerical equivalence implies the cycle count to tolerance is
	// independent of the decomposition.
	base, err := RunDistributed(4, 1, 30, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 3, 5} {
		res, err := RunDistributed(4, ranks, 30, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != base.Cycles {
			t.Errorf("ranks=%d took %d cycles, 1 rank took %d", ranks, res.Cycles, base.Cycles)
		}
	}
}

func TestDistributedSolutionAccuracy(t *testing.T) {
	// Against the manufactured solution, the distributed result has the
	// same O(h^2) discretisation error as the serial solver.
	const k = 5
	_, u, err := RunDistributedSolution(k, 4, 30, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	n := (1 << k) - 1
	h := 1.0 / float64(n+1)
	worst := 0.0
	for kk := 0; kk < n; kk++ {
		z := float64(kk+1) * h
		for j := 0; j < n; j++ {
			y := float64(j+1) * h
			for i := 0; i < n; i++ {
				x := float64(i+1) * h
				exact := math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
				if e := math.Abs(u[i+n*j+n*n*kk] - exact); e > worst {
					worst = e
				}
			}
		}
	}
	if worst > 5*h*h {
		t.Errorf("max error %g exceeds O(h^2) bound %g", worst, 5*h*h)
	}
}

func TestDistributedValidation(t *testing.T) {
	if _, err := RunDistributed(1, 1, 10, 1e-6); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := RunDistributed(4, 0, 10, 1e-6); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := RunDistributed(4, 8, 10, 1e-6); err == nil {
		t.Error("8 ranks on 15 planes accepted (needs >= 2 planes each)")
	}
}

// RunDistributedSolution is RunDistributed but also returns the assembled
// global solution vector, for verification against the serial solver.
func RunDistributedSolution(k, ranks, maxCycles int, tol float64) (*DistResult, []float64, error) {
	res, slabs, err := runDistributed(k, ranks, maxCycles, tol)
	if err != nil {
		return nil, nil, err
	}
	return res, gatherSolution(slabs), nil
}

// gatherSolution assembles the global solution from the slabs.
func gatherSolution(slabs []*mgSlab) []float64 {
	n := slabs[0].n
	out := make([]float64, n*n*n)
	p := n * n
	for _, s := range slabs {
		copy(out[s.z0*p:], s.u)
	}
	return out
}
