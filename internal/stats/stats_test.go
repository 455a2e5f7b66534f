package stats

import (
	"math"
	"testing"
)

// genValues produces a deterministic pseudo-random sample in roughly
// [50, 150) from the package's own splitmix generator, so the property
// tests are reproducible without math/rand.
func genValues(n int, seed uint64) []float64 {
	rng := newSplitmix(seed)
	out := make([]float64, n)
	for i := range out {
		// 53 bits of mantissa → uniform in [0, 1).
		u := float64(rng.next()>>11) / (1 << 53)
		out[i] = 50 + 100*u
	}
	return out
}

func TestBootstrapCIDeterministicUnderFixedSeed(t *testing.T) {
	vals := genValues(20, 7)
	lo1, hi1 := BootstrapCI(vals, 500, 0.95, 42)
	lo2, hi2 := BootstrapCI(vals, 500, 0.95, 42)
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatalf("same seed gave different intervals: [%v, %v] vs [%v, %v]", lo1, hi1, lo2, hi2)
	}
	lo3, hi3 := BootstrapCI(vals, 500, 0.95, 43)
	if lo1 == lo3 && hi1 == hi3 {
		t.Fatalf("different seed gave identical interval [%v, %v]; generator is not seeded", lo3, hi3)
	}
}

func TestBootstrapCIContainsSampleMean(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		vals := genValues(12, seed)
		var w Welford
		for _, v := range vals {
			w.Add(v)
		}
		lo, hi := BootstrapCI(vals, 0, 0, seed)
		if lo > hi {
			t.Fatalf("seed %d: inverted interval [%v, %v]", seed, lo, hi)
		}
		if w.Mean() < lo || w.Mean() > hi {
			t.Fatalf("seed %d: sample mean %v outside bootstrap CI [%v, %v]", seed, w.Mean(), lo, hi)
		}
	}
}

// A constant series is the floating-point worst case: the bootstrap
// recomputes resample means as sums, and ((x+x)+x)/3 can land an ulp
// away from x. Summarize guarantees ci_lo <= mean <= ci_hi regardless.
func TestSummarizeConstantSeriesCIBracketsMean(t *testing.T) {
	for _, x := range []float64{226720.141, 1.0 / 3.0, 0.1, -7.7, 1e-300, 0} {
		for n := 2; n <= 7; n++ {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = x
			}
			s := Summarize(vals, 0, 0, 42)
			if !(s.CILo <= s.Mean && s.Mean <= s.CIHi) {
				t.Errorf("x=%v n=%d: CI [%v, %v] excludes mean %v", x, n, s.CILo, s.CIHi, s.Mean)
			}
			if s.Stddev != 0 || s.RSD != 0 {
				t.Errorf("x=%v n=%d: constant series has stddev %v rsd %v", x, n, s.Stddev, s.RSD)
			}
		}
	}
}

func TestBootstrapCIWidthShrinksWithN(t *testing.T) {
	// The standard error of the mean scales ~1/sqrt(n), so the interval
	// for n=1000 must be strictly narrower than n=100, which must be
	// narrower than n=10. Use the same underlying population per size.
	width := func(n int) float64 {
		vals := genValues(n, 99)
		lo, hi := BootstrapCI(vals, 1000, 0.95, 1)
		return hi - lo
	}
	w10, w100, w1000 := width(10), width(100), width(1000)
	if !(w1000 < w100 && w100 < w10) {
		t.Fatalf("interval width did not shrink with n: w10=%v w100=%v w1000=%v", w10, w100, w1000)
	}
}

func TestBootstrapCIDegenerateInputs(t *testing.T) {
	if lo, hi := BootstrapCI(nil, 0, 0, 1); lo != 0 || hi != 0 {
		t.Fatalf("empty input: got [%v, %v], want [0, 0]", lo, hi)
	}
	if lo, hi := BootstrapCI([]float64{3.5}, 0, 0, 1); lo != 3.5 || hi != 3.5 {
		t.Fatalf("single value: got [%v, %v], want [3.5, 3.5]", lo, hi)
	}
	// Constant series: every resample mean is the constant.
	lo, hi := BootstrapCI([]float64{2, 2, 2, 2}, 0, 0, 1)
	if lo != 2 || hi != 2 {
		t.Fatalf("constant series: got [%v, %v], want [2, 2]", lo, hi)
	}
}

// naiveVariance is the two-pass textbook sample variance used as the
// reference implementation for the Welford property test.
func naiveVariance(vals []float64) (mean, variance float64) {
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		d := v - mean
		variance += d * d
	}
	if len(vals) > 1 {
		variance /= float64(len(vals) - 1)
	} else {
		variance = 0
	}
	return mean, variance
}

func TestWelfordMatchesTwoPassVariance(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		n := 2 + int(seed%37)
		vals := genValues(n, seed*31)
		var w Welford
		for _, v := range vals {
			w.Add(v)
		}
		mean, variance := naiveVariance(vals)
		if math.Abs(w.Mean()-mean) > 1e-12 {
			t.Fatalf("seed %d: mean %v vs two-pass %v", seed, w.Mean(), mean)
		}
		if math.Abs(w.Variance()-variance) > 1e-12 {
			t.Fatalf("seed %d: variance %v vs two-pass %v", seed, w.Variance(), variance)
		}
	}
}

func TestWelfordSmallAndEdge(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.Stddev() != 0 || w.RSD() != 0 {
		t.Fatalf("zero-value Welford not all-zero: %+v", w)
	}
	w.Add(4)
	if w.N() != 1 || w.Mean() != 4 || w.Variance() != 0 {
		t.Fatalf("single observation: n=%d mean=%v var=%v", w.N(), w.Mean(), w.Variance())
	}
	w.Add(6)
	if w.Mean() != 5 || math.Abs(w.Variance()-2) > 1e-15 {
		t.Fatalf("two observations: mean=%v var=%v, want 5, 2", w.Mean(), w.Variance())
	}
	if got, want := w.RSD(), math.Sqrt(2)/5; math.Abs(got-want) > 1e-15 {
		t.Fatalf("RSD = %v, want %v", got, want)
	}
	// Zero mean → RSD defined as 0, not Inf.
	var z Welford
	z.Add(-1)
	z.Add(1)
	if z.RSD() != 0 {
		t.Fatalf("zero-mean RSD = %v, want 0", z.RSD())
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil, 0, 0, 1); s != (Summary{}) {
		t.Fatalf("empty summarize: %+v", s)
	}
	s := Summarize([]float64{10, 12, 11, 13, 9}, 0, 0, 1)
	if s.N != 5 {
		t.Fatalf("N = %d, want 5", s.N)
	}
	if math.Abs(s.Mean-11) > 1e-12 {
		t.Fatalf("Mean = %v, want 11", s.Mean)
	}
	if s.CILo > s.Mean || s.CIHi < s.Mean {
		t.Fatalf("mean %v outside CI [%v, %v]", s.Mean, s.CILo, s.CIHi)
	}
	if s.RSD <= 0 {
		t.Fatalf("RSD = %v, want > 0 for a noisy series", s.RSD)
	}
	one := Summarize([]float64{7}, 0, 0, 1)
	if one.N != 1 || one.Mean != 7 || one.CILo != 7 || one.CIHi != 7 || one.Stddev != 0 {
		t.Fatalf("single-value summary: %+v", one)
	}
}

func TestValidateProtocol(t *testing.T) {
	if err := ValidateProtocol(1, 0); err != nil {
		t.Fatalf("1/0 rejected: %v", err)
	}
	if err := ValidateProtocol(5, 2); err != nil {
		t.Fatalf("5/2 rejected: %v", err)
	}
	if err := ValidateProtocol(0, 0); err == nil {
		t.Fatal("0 repetitions accepted")
	}
	if err := ValidateProtocol(3, -1); err == nil {
		t.Fatal("negative warmup accepted")
	}
	if err := ValidateProtocol(900, 200); err == nil {
		t.Fatal("oversized protocol accepted")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-15 {
			t.Fatalf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("percentile of empty = %v, want 0", got)
	}
}

func TestSplitmixIntn(t *testing.T) {
	rng := newSplitmix(0)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := rng.intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("intn(5) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("intn(5) over 1000 draws hit only %d distinct values", len(seen))
	}
}
