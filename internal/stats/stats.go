// Package stats provides the deterministic statistics kernel behind the
// framework's repetition protocol: Welford online mean/variance, seedable
// bootstrap resampling with percentile confidence intervals, and warm-up
// discard / repetition aggregation helpers.
//
// Everything here is deliberately dependency-free and deterministic: the
// bootstrap uses an internal splitmix64 generator rather than math/rand so
// that a (values, resamples, confidence, seed) tuple always yields the same
// interval, on any platform, forever. Regression verdicts derived from these
// numbers must be reproducible artifacts, exactly like the perflog lines
// they are computed from.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Defaults for the bootstrap. 1000 resamples at 95% confidence is the
// conventional choice; callers pass 0 to get them.
const (
	DefaultResamples  = 1000
	DefaultConfidence = 0.95
)

// Welford accumulates mean and variance in one pass using Welford's
// online algorithm, which is numerically stable where the naive
// sum-of-squares formula catastrophically cancels.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations added.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample variance (n-1 denominator); 0 when n < 2.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// RSD returns the relative standard deviation |stddev/mean|, the
// run-to-run noise measure the variance gate thresholds. It is 0 when
// the mean is 0 (no meaningful relative measure exists).
func (w *Welford) RSD() float64 {
	if w.mean == 0 {
		return 0
	}
	return math.Abs(w.Stddev() / w.mean)
}

// Summary is the per-FOM repetition aggregate recorded in the perflog.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	RSD    float64
	CILo   float64
	CIHi   float64
}

// Summarize computes the full repetition summary for one FOM: Welford
// moments plus a seeded bootstrap percentile CI on the mean. A nil or
// empty slice returns the zero Summary; a single value yields a
// degenerate interval [v, v]. The interval always contains the sample
// mean: bootstrap resample means are recomputed sums, which under
// floating point can land an ulp outside the Welford mean when the
// series is (near-)constant, so the bounds are widened to cover it —
// "ci_lo <= mean <= ci_hi" is an invariant consumers may rely on.
func Summarize(values []float64, resamples int, confidence float64, seed uint64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	var w Welford
	for _, v := range values {
		w.Add(v)
	}
	lo, hi := BootstrapCI(values, resamples, confidence, seed)
	mean := w.Mean()
	if !math.IsNaN(mean) {
		lo = math.Min(lo, mean)
		hi = math.Max(hi, mean)
	}
	return Summary{
		N:      w.N(),
		Mean:   mean,
		Stddev: w.Stddev(),
		RSD:    w.RSD(),
		CILo:   lo,
		CIHi:   hi,
	}
}

// BootstrapCI returns a percentile bootstrap confidence interval for the
// mean of values. resamples <= 0 and confidence <= 0 select the defaults
// (1000, 0.95). The interval is deterministic in (values, resamples,
// confidence, seed). Fewer than two values yield the degenerate interval
// [v, v] (or [0, 0] when empty): with one observation there is nothing to
// resample.
func BootstrapCI(values []float64, resamples int, confidence float64, seed uint64) (lo, hi float64) {
	switch len(values) {
	case 0:
		return 0, 0
	case 1:
		return values[0], values[0]
	}
	if resamples <= 0 {
		resamples = DefaultResamples
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = DefaultConfidence
	}
	rng := newSplitmix(seed)
	n := len(values)
	means := make([]float64, resamples)
	for i := range means {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += values[rng.intn(n)]
		}
		means[i] = sum / float64(n)
	}
	sort.Float64s(means)
	alpha := (1 - confidence) / 2
	return percentile(means, alpha), percentile(means, 1-alpha)
}

// percentile returns the p-quantile (0 <= p <= 1) of a sorted slice using
// linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ValidateProtocol rejects nonsensical repetition parameters before a run
// starts. repetitions is the number of measured repetitions (>= 1);
// warmup is the number of additional discarded executions (>= 0).
func ValidateProtocol(repetitions, warmup int) error {
	if repetitions < 1 {
		return fmt.Errorf("stats: repetitions must be >= 1, got %d", repetitions)
	}
	if warmup < 0 {
		return fmt.Errorf("stats: warmup must be >= 0, got %d", warmup)
	}
	const maxExecutions = 1000
	if repetitions+warmup > maxExecutions {
		return fmt.Errorf("stats: repetitions+warmup = %d exceeds cap %d", repetitions+warmup, maxExecutions)
	}
	return nil
}

// splitmix is a splitmix64 PRNG: tiny, fast, and fully specified, so
// bootstrap intervals never depend on math/rand's algorithm choices.
type splitmix struct{ state uint64 }

// newSplitmix seeds the generator; seed 0 is remapped so the all-zero
// state still produces a useful stream.
func newSplitmix(seed uint64) *splitmix {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &splitmix{state: seed}
}

func (s *splitmix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n). n is small (repetition counts),
// so simple modulo bias is negligible but we reject-sample anyway to keep
// the distribution exact.
func (s *splitmix) intn(n int) int {
	max := uint64(n)
	limit := math.MaxUint64 - math.MaxUint64%max
	for {
		v := s.next()
		if v < limit {
			return int(v % max)
		}
	}
}
