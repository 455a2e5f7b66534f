package hpgmg

// Distributed-memory HPGMG on the host: the finest level is decomposed
// into z-plane slabs owned by goroutine ranks; red-black smoothing and
// residual evaluation run rank-parallel with channel halo exchanges (one
// exchange per smoother colour, so the sweep is bit-identical to the
// serial solver); the coarse hierarchy is agglomerated onto rank 0, the
// strategy real HPGMG uses once levels shrink below the rank count.
//
// Because the distributed algorithm is numerically identical to the
// serial V-cycle (same colouring, same transfers), the tests can require
// exact agreement with the single-rank solver — the strongest possible
// check on the communication code.

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/team"
)

// mgSlab is one rank's slice of the finest level: planes [z0, z0+nz) of
// the n×n×n vertex grid.
type mgSlab struct {
	rank   int
	n      int // interior points per dimension (global)
	nz     int // local planes
	z0     int // first global plane index
	nRanks int

	u, b, r []float64 // local fields, nz*n*n each

	lower, upper *team.Halo
	gLow, gHigh  []float64 // ghost planes of u (nil at global boundaries)

	// gather/scatter channels to rank 0 for the coarse solve.
	toRoot   chan []float64
	fromRoot chan []float64
}

func (s *mgSlab) plane() int { return s.n * s.n }

// exchange refreshes the ghost planes of u.
func (s *mgSlab) exchange() {
	p := s.plane()
	if s.lower != nil {
		buf := make([]float64, p)
		copy(buf, s.u[:p])
		s.lower.ToLower <- buf
	}
	if s.upper != nil {
		buf := make([]float64, p)
		copy(buf, s.u[(s.nz-1)*p:])
		s.upper.ToUpper <- buf
	}
	if s.lower != nil {
		s.gLow = <-s.lower.ToUpper
	} else {
		s.gLow = nil
	}
	if s.upper != nil {
		s.gHigh = <-s.upper.ToLower
	} else {
		s.gHigh = nil
	}
}

// zNeighbor reads u at local plane kk (kk may be -1 or nz, hitting a
// ghost plane), returning 0 outside the global domain.
func (s *mgSlab) zNeighbor(i, j, kk int) float64 {
	p := s.plane()
	switch {
	case kk < 0:
		if s.gLow == nil {
			return 0
		}
		return s.gLow[i+s.n*j]
	case kk >= s.nz:
		if s.gHigh == nil {
			return 0
		}
		return s.gHigh[i+s.n*j]
	default:
		return s.u[i+s.n*j+p*kk]
	}
}

// smoothColor performs one Gauss-Seidel colour sweep with *global*
// red-black parity, matching the serial solver's ordering exactly.
func (s *mgSlab) smoothColor(h2 float64, colour int) {
	n, p := s.n, s.plane()
	for kk := 0; kk < s.nz; kk++ {
		kGlob := s.z0 + kk
		for j := 0; j < n; j++ {
			for i := (kGlob + j + colour) % 2; i < n; i += 2 {
				idx := i + n*j + p*kk
				sum := 0.0
				if i > 0 {
					sum += s.u[idx-1]
				}
				if i < n-1 {
					sum += s.u[idx+1]
				}
				if j > 0 {
					sum += s.u[idx-n]
				}
				if j < n-1 {
					sum += s.u[idx+n]
				}
				if kGlob > 0 {
					sum += s.zNeighbor(i, j, kk-1)
				}
				if kGlob < s.n-1 {
					sum += s.zNeighbor(i, j, kk+1)
				}
				s.u[idx] = (h2*s.b[idx] + sum) / 6.0
			}
		}
	}
}

// smooth runs one full red-black sweep (both colours), exchanging ghosts
// before each colour so off-rank reads always see the same values the
// serial sweep would.
func (s *mgSlab) smooth(h2 float64) {
	s.exchange()
	s.smoothColor(h2, 0)
	s.exchange()
	s.smoothColor(h2, 1)
}

// residual computes r = b + Δu on the local planes.
func (s *mgSlab) residual(invH2 float64) {
	n, p := s.n, s.plane()
	s.exchange()
	for kk := 0; kk < s.nz; kk++ {
		kGlob := s.z0 + kk
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				idx := i + n*j + p*kk
				sum := -6.0 * s.u[idx]
				if i > 0 {
					sum += s.u[idx-1]
				}
				if i < n-1 {
					sum += s.u[idx+1]
				}
				if j > 0 {
					sum += s.u[idx-n]
				}
				if j < n-1 {
					sum += s.u[idx+n]
				}
				if kGlob > 0 {
					sum += s.zNeighbor(i, j, kk-1)
				}
				if kGlob < s.n-1 {
					sum += s.zNeighbor(i, j, kk+1)
				}
				s.r[idx] = s.b[idx] + sum*invH2
			}
		}
	}
}

// DistResult reports a distributed HPGMG solve.
type DistResult struct {
	Ranks     int
	Cycles    int
	Residual  float64 // final relative residual
	Converged bool
	MDOFs     float64
	Seconds   float64
}

// RunDistributed solves the manufactured Poisson problem on a 2^k-1 cube
// with V(2,2)-cycles: the finest level distributed over goroutine ranks,
// coarse levels agglomerated on rank 0.
func RunDistributed(k, ranks, maxCycles int, tol float64) (*DistResult, error) {
	res, _, err := runDistributed(k, ranks, maxCycles, tol)
	return res, err
}

func runDistributed(k, ranks, maxCycles int, tol float64) (*DistResult, []*mgSlab, error) {
	if k < 2 || k > 9 {
		return nil, nil, fmt.Errorf("hpgmg: level exponent k=%d out of range [2,9]", k)
	}
	n := (1 << k) - 1
	if ranks < 1 || ranks > n/2 {
		return nil, nil, fmt.Errorf("hpgmg: %d ranks cannot decompose %d planes (need >= 2 planes per rank)", ranks, n)
	}
	if maxCycles <= 0 {
		maxCycles = 30
	}

	// Rank 0's serial hierarchy handles everything below the finest
	// level; its finest level doubles as gather/scatter workspace.
	root, err := NewSolver(k)
	if err != nil {
		return nil, nil, err
	}
	root.Workers = 1 // coarse grids are small; keep it deterministic

	halos := team.NewHalos(ranks)
	red := team.NewReducer(ranks)
	bar := team.NewBarrier(ranks)
	slabs := make([]*mgSlab, ranks)
	z0 := 0
	for r := 0; r < ranks; r++ {
		nz := n / ranks
		if r < n%ranks {
			nz++
		}
		s := &mgSlab{
			rank: r, n: n, nz: nz, z0: z0, nRanks: ranks,
			u:        make([]float64, nz*n*n),
			b:        make([]float64, nz*n*n),
			r:        make([]float64, nz*n*n),
			toRoot:   make(chan []float64, 1),
			fromRoot: make(chan []float64, 1),
		}
		if r > 0 {
			s.lower = halos[r-1]
		}
		if r < ranks-1 {
			s.upper = halos[r]
		}
		// Local share of the manufactured right-hand side.
		fillRHS(s)
		slabs[r] = s
		z0 += nz
	}

	results := make([]DistResult, ranks)
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(s *mgSlab) {
			defer wg.Done()
			results[s.rank] = solveSlab(s, slabs, root, red, bar, maxCycles, tol)
		}(slabs[r])
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	out := results[0]
	out.Ranks = ranks
	out.Seconds = elapsed
	out.MDOFs = float64(n) * float64(n) * float64(n) / elapsed / 1e6
	return &out, slabs, nil
}

// fillRHS writes the manufactured f = 3π²·sin(πx)sin(πy)sin(πz) onto the
// slab's local planes.
func fillRHS(s *mgSlab) {
	h := 1.0 / float64(s.n+1)
	pi := math.Pi
	p := s.plane()
	for kk := 0; kk < s.nz; kk++ {
		z := float64(s.z0+kk+1) * h
		for j := 0; j < s.n; j++ {
			y := float64(j+1) * h
			for i := 0; i < s.n; i++ {
				x := float64(i+1) * h
				s.b[i+s.n*j+p*kk] = 3 * pi * pi * math.Sin(pi*x) * math.Sin(pi*y) * math.Sin(pi*z)
			}
		}
	}
}

// solveSlab is the SPMD body: V(2,2)-cycles with an agglomerated coarse
// solve, iterating until the global relative residual passes tol.
func solveSlab(s *mgSlab, slabs []*mgSlab, root *Solver, red *team.Reducer, bar *team.Barrier, maxCycles int, tol float64) DistResult {
	fine := root.levels[0]
	h2 := fine.h * fine.h
	invH2 := 1.0 / h2

	b2 := math.Sqrt(red.Sum(s.rank, dotLocal(s.b)))
	out := DistResult{}
	if b2 == 0 {
		out.Converged = true
		return out
	}

	for cycle := 1; cycle <= maxCycles; cycle++ {
		// Pre-smooth (x2), matching the serial V(2,2) cycle.
		s.smooth(h2)
		s.smooth(h2)
		s.residual(invH2)

		// Gather the residual on rank 0, run the coarse hierarchy
		// there, and scatter back the fine-level correction.
		s.toRoot <- s.r
		if s.rank == 0 {
			p := s.plane()
			for _, other := range slabs {
				chunk := <-other.toRoot
				copy(fine.r[other.z0*p:], chunk)
			}
			coarse := root.levels[1]
			root.restrictTo(fine, coarse)
			zero(coarse.u)
			root.vcycleFrom(1)
			zero(fine.u) // correction workspace
			root.prolongAdd(coarse, fine)
			for _, other := range slabs {
				chunk := make([]float64, other.nz*p)
				copy(chunk, fine.u[other.z0*p:other.z0*p+other.nz*p])
				other.fromRoot <- chunk
			}
		}
		correction := <-s.fromRoot
		for i, c := range correction {
			s.u[i] += c
		}

		// Post-smooth (x2).
		s.smooth(h2)
		s.smooth(h2)

		s.residual(invH2)
		rnorm := math.Sqrt(red.Sum(s.rank, dotLocal(s.r)))
		out.Cycles = cycle
		out.Residual = rnorm / b2
		if out.Residual < tol {
			out.Converged = true
			break
		}
		bar.Await() // keep cycles in lockstep
	}
	return out
}

func dotLocal(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x * x
	}
	return sum
}
