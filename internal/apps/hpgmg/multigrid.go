// Package hpgmg implements the HPGMG-FV benchmark of the paper's §3.3
// case study: a full multigrid (FMG) solver for Poisson's equation,
// reporting the solve rate in degrees of freedom per second at the finest
// level and the two coarsened replays (the l0, l1, l2 Figures of Merit of
// Table 4).
//
// The host implementation is a real geometric multigrid: vertex-centred
// 7-point Laplacian on the unit cube with homogeneous Dirichlet
// boundaries, red-black Gauss-Seidel smoothing, full-weighting
// restriction, trilinear prolongation, and F-cycle (FMG) drive. The
// distributed version used for the cross-system Table 4 reproduction is
// modelled analytically in simulate.go.
package hpgmg

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// level holds one grid of the multigrid hierarchy: n interior points per
// dimension (n = 2^k - 1), spacing h = 1/(n+1), with u, b, and a residual
// scratch array. Points are indexed over the interior only.
type level struct {
	n int // interior points per dimension
	h float64
	u []float64
	b []float64
	r []float64
}

func newLevel(n int) *level {
	size := n * n * n
	return &level{
		n: n,
		h: 1.0 / float64(n+1),
		u: make([]float64, size),
		b: make([]float64, size),
		r: make([]float64, size),
	}
}

func (l *level) idx(i, j, k int) int { return i + l.n*(j+l.n*k) }

// dofs returns the number of unknowns on the level.
func (l *level) dofs() int { return l.n * l.n * l.n }

// Solver is a multigrid hierarchy for -Δu = f on the unit cube.
type Solver struct {
	levels  []*level // levels[0] is finest
	Workers int      // goroutines for smoothing/residual (0 = NumCPU)

	// Counters for the benchmark's work accounting.
	FlopCount   float64
	TraffBytes  float64
	VCycleCount int
}

// NewSolver builds a hierarchy with finest grid of 2^k - 1 interior
// points per dimension, coarsening down to a single point.
func NewSolver(k int) (*Solver, error) {
	if k < 1 || k > 10 {
		return nil, fmt.Errorf("hpgmg: level exponent k=%d out of range [1,10]", k)
	}
	s := &Solver{Workers: runtime.NumCPU()}
	for kk := k; kk >= 1; kk-- {
		s.levels = append(s.levels, newLevel((1<<kk)-1))
	}
	return s, nil
}

// Fine returns the finest level's interior size.
func (s *Solver) Fine() *level { return s.levels[0] }

// N returns the finest-level interior dimension.
func (s *Solver) N() int { return s.levels[0].n }

// parRange runs body over [0,n) slabs in parallel.
func (s *Solver) parRange(n int, body func(lo, hi int)) {
	w := s.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w <= 1 || n < 4 {
		body(0, n)
		return
	}
	if w > n {
		w = n
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(start, end)
	}
	wg.Wait()
}

// smooth performs one red-black Gauss-Seidel sweep (both colours) on the
// level. Red-black ordering makes the sweep safe to parallelise over z
// slabs within a colour.
func (s *Solver) smooth(l *level) {
	n := l.n
	h2 := l.h * l.h
	for colour := 0; colour <= 1; colour++ {
		s.parRange(n, func(klo, khi int) {
			for k := klo; k < khi; k++ {
				for j := 0; j < n; j++ {
					for i := (k + j + colour) % 2; i < n; i += 2 {
						idx := l.idx(i, j, k)
						sum := 0.0
						if i > 0 {
							sum += l.u[idx-1]
						}
						if i < n-1 {
							sum += l.u[idx+1]
						}
						if j > 0 {
							sum += l.u[idx-n]
						}
						if j < n-1 {
							sum += l.u[idx+n]
						}
						if k > 0 {
							sum += l.u[idx-n*n]
						}
						if k < n-1 {
							sum += l.u[idx+n*n]
						}
						l.u[idx] = (h2*l.b[idx] + sum) / 6.0
					}
				}
			}
		})
	}
	s.FlopCount += 9 * float64(l.dofs())
	s.TraffBytes += 48 * float64(l.dofs())
}

// residual computes r = b + Δu (the residual of -Δu = b).
func (s *Solver) residual(l *level) {
	n := l.n
	invH2 := 1.0 / (l.h * l.h)
	s.parRange(n, func(klo, khi int) {
		for k := klo; k < khi; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					idx := l.idx(i, j, k)
					sum := -6.0 * l.u[idx]
					if i > 0 {
						sum += l.u[idx-1]
					}
					if i < n-1 {
						sum += l.u[idx+1]
					}
					if j > 0 {
						sum += l.u[idx-n]
					}
					if j < n-1 {
						sum += l.u[idx+n]
					}
					if k > 0 {
						sum += l.u[idx-n*n]
					}
					if k < n-1 {
						sum += l.u[idx+n*n]
					}
					l.r[idx] = l.b[idx] + sum*invH2
				}
			}
		}
	})
	s.FlopCount += 10 * float64(l.dofs())
	s.TraffBytes += 40 * float64(l.dofs())
}

// restrictTo transfers the fine residual to the coarse right-hand side by
// full weighting (the 27-point average with trilinear weights).
func (s *Solver) restrictTo(fine, coarse *level) {
	nc := coarse.n
	nf := fine.n
	s.parRange(nc, func(klo, khi int) {
		for kc := klo; kc < khi; kc++ {
			for jc := 0; jc < nc; jc++ {
				for ic := 0; ic < nc; ic++ {
					fi, fj, fk := 2*ic+1, 2*jc+1, 2*kc+1
					sum := 0.0
					for dk := -1; dk <= 1; dk++ {
						for dj := -1; dj <= 1; dj++ {
							for di := -1; di <= 1; di++ {
								i, j, k := fi+di, fj+dj, fk+dk
								if i < 0 || i >= nf || j < 0 || j >= nf || k < 0 || k >= nf {
									continue
								}
								w := weight1(di) * weight1(dj) * weight1(dk)
								sum += w * fine.r[fine.idx(i, j, k)]
							}
						}
					}
					coarse.b[coarse.idx(ic, jc, kc)] = sum
				}
			}
		}
	})
	s.FlopCount += 54 * float64(coarse.dofs())
	s.TraffBytes += 8 * float64(fine.dofs())
}

func weight1(d int) float64 {
	if d == 0 {
		return 0.5
	}
	return 0.25
}

// prolongAdd interpolates the coarse correction trilinearly and adds it
// to the fine solution.
func (s *Solver) prolongAdd(coarse, fine *level) {
	nf := fine.n
	nc := coarse.n
	s.parRange(nf, func(klo, khi int) {
		for k := klo; k < khi; k++ {
			for j := 0; j < nf; j++ {
				for i := 0; i < nf; i++ {
					fine.u[fine.idx(i, j, k)] += trilinear(coarse, nc, i, j, k)
				}
			}
		}
	})
	s.FlopCount += 8 * float64(fine.dofs())
	s.TraffBytes += 16 * float64(fine.dofs())
}

// trilinear evaluates the coarse-grid correction at fine point (i,j,k).
// Fine point x-index i corresponds to coarse coordinate (i+1)/2 - 1 in
// index space; odd fine indices sit on coarse points.
func trilinear(coarse *level, nc, i, j, k int) float64 {
	get := func(ic, jc, kc int) float64 {
		if ic < 0 || ic >= nc || jc < 0 || jc >= nc || kc < 0 || kc >= nc {
			return 0 // Dirichlet boundary
		}
		return coarse.u[coarse.idx(ic, jc, kc)]
	}
	// Coordinates in coarse index space: (i+1)/2 - 1 + frac.
	ci, fi := (i-1)/2, 1.0
	if i%2 == 0 {
		// Even fine index lies midway between coarse points ci and ci+1
		// (with virtual boundary points at the domain edge).
		ci, fi = i/2-1, 0.5
	}
	cj, fj := (j-1)/2, 1.0
	if j%2 == 0 {
		cj, fj = j/2-1, 0.5
	}
	ck, fk := (k-1)/2, 1.0
	if k%2 == 0 {
		ck, fk = k/2-1, 0.5
	}
	v := 0.0
	for dk := 0; dk <= 1; dk++ {
		wk := fk
		if dk == 1 {
			wk = 1 - fk
		}
		if wk == 0 {
			continue
		}
		for dj := 0; dj <= 1; dj++ {
			wj := fj
			if dj == 1 {
				wj = 1 - fj
			}
			if wj == 0 {
				continue
			}
			for di := 0; di <= 1; di++ {
				wi := fi
				if di == 1 {
					wi = 1 - fi
				}
				if wi == 0 {
					continue
				}
				v += wi * wj * wk * get(ci+di, cj+dj, ck+dk)
			}
		}
	}
	return v
}

// vcycle runs one V(2,2) cycle starting at level index li.
func (s *Solver) vcycle(li int) {
	l := s.levels[li]
	if li == len(s.levels)-1 {
		// Coarsest level (1 point): direct solve.
		l.u[0] = l.b[0] * l.h * l.h / 6.0
		return
	}
	s.smooth(l)
	s.smooth(l)
	s.residual(l)
	coarse := s.levels[li+1]
	s.restrictTo(l, coarse)
	zero(coarse.u)
	s.vcycle(li + 1)
	s.prolongAdd(coarse, l)
	s.smooth(l)
	s.smooth(l)
	if li == 0 {
		s.VCycleCount++
	}
}

// FMG runs a full multigrid cycle: solve coarsest, prolong, V-cycle at
// each level on the way up. The right-hand side must already be set on
// the finest level; coarse RHS values are built by restriction of b.
func (s *Solver) FMG() {
	// Build coarse RHS hierarchy by restricting b (store b in r slot to
	// reuse restrictTo).
	for li := 0; li < len(s.levels)-1; li++ {
		copy(s.levels[li].r, s.levels[li].b)
		s.restrictTo(s.levels[li], s.levels[li+1])
	}
	last := len(s.levels) - 1
	coarsest := s.levels[last]
	coarsest.u[0] = coarsest.b[0] * coarsest.h * coarsest.h / 6.0
	for li := last - 1; li >= 0; li-- {
		zero(s.levels[li].u)
		s.prolongAdd(s.levels[li+1], s.levels[li])
		s.vcycleFrom(li)
	}
}

// vcycleFrom runs one V-cycle treating level li as the top.
func (s *Solver) vcycleFrom(li int) {
	top := s.levels
	s.levels = s.levels[li:]
	s.vcycle(0)
	s.levels = top
}

// Solve drives V-cycles until the relative residual drops below tol (or
// maxCycles), returning the final relative residual.
func (s *Solver) Solve(tol float64, maxCycles int) float64 {
	if maxCycles <= 0 {
		maxCycles = 20
	}
	fine := s.levels[0]
	b2 := s.norm(fine.b)
	if b2 == 0 {
		return 0
	}
	s.FMG()
	rel := 1.0
	for c := 0; c < maxCycles; c++ {
		s.residual(fine)
		rel = s.norm(fine.r) / b2
		if rel < tol {
			return rel
		}
		s.vcycle(0)
	}
	return rel
}

func (s *Solver) norm(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x * x
	}
	s.FlopCount += 2 * float64(len(v))
	return math.Sqrt(sum)
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
