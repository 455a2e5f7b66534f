package fom

import (
	"math"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

const babelStreamOutput = `BabelStream
Version: 4.0
Implementation: OpenMP
Running kernels 100 times
Precision: double
Array size: 268.4 MB (=0.3 GB)
Total size: 805.3 MB (=0.8 GB)
Function    MBytes/sec  Min (sec)   Max         Average
Copy        175231.229  0.00306     0.00331     0.00317
Mul         174801.123  0.00307     0.00335     0.00319
Add         190214.405  0.00423     0.00458     0.00441
Triad       190849.762  0.00422     0.00455     0.00437
Dot         205112.870  0.00262     0.00289     0.00274
`

func TestExtractBabelStreamTriad(t *testing.T) {
	patterns := []Pattern{
		MustPattern("triad_mbps", "MB/s", `Triad\s+([0-9.]+)`),
		MustPattern("copy_mbps", "MB/s", `Copy\s+([0-9.]+)`),
	}
	got, err := Extract(babelStreamOutput, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if v := got["triad_mbps"].Value; math.Abs(v-190849.762) > 1e-6 {
		t.Errorf("triad = %g", v)
	}
	if v := got["copy_mbps"].Value; math.Abs(v-175231.229) > 1e-6 {
		t.Errorf("copy = %g", v)
	}
	if got["triad_mbps"].Unit != "MB/s" {
		t.Errorf("unit = %q", got["triad_mbps"].Unit)
	}
}

func TestExtractMissingPatternFails(t *testing.T) {
	patterns := []Pattern{MustPattern("gflops", "GF/s", `GFLOP/s rating of:\s+([0-9.]+)`)}
	if _, err := Extract(babelStreamOutput, patterns); err == nil {
		t.Error("missing FOM must be an error (benchmark did not run correctly)")
	}
}

func TestExtractAllWithReduce(t *testing.T) {
	output := "iter 1: 10.5 GB/s\niter 2: 12.5 GB/s\niter 3: 11.0 GB/s\n"
	p := Pattern{
		Name: "bw", Unit: "GB/s",
		Regex: regexp.MustCompile(`iter \d+: ([0-9.]+) GB/s`),
		All:   true,
	}
	got, err := Extract(output, []Pattern{p})
	if err != nil {
		t.Fatal(err)
	}
	if got["bw"].Value != 12.5 {
		t.Errorf("default reduce should be max: %g", got["bw"].Value)
	}
	p.Reduce = func(xs []float64) float64 { return (xs[0] + xs[1] + xs[2]) / 3 }
	got, _ = Extract(output, []Pattern{p})
	if math.Abs(got["bw"].Value-11.333333) > 1e-4 {
		t.Errorf("mean = %g", got["bw"].Value)
	}
	p.Reduce = func(xs []float64) float64 { return math.Min(xs[0], math.Min(xs[1], xs[2])) }
	got, _ = Extract(output, []Pattern{p})
	if got["bw"].Value != 10.5 {
		t.Errorf("min = %g", got["bw"].Value)
	}
}

func TestExtractErrors(t *testing.T) {
	if _, err := Extract("x", []Pattern{{Name: "no-regex"}}); err == nil {
		t.Error("nil regex accepted")
	}
	bad := Pattern{Name: "g", Regex: regexp.MustCompile(`val (\d+)`), Group: 5}
	if _, err := Extract("val 3", []Pattern{bad}); err == nil {
		t.Error("out-of-range group accepted")
	}
	nonNum := Pattern{Name: "n", Regex: regexp.MustCompile(`val (\w+)`)}
	if _, err := Extract("val abc", []Pattern{nonNum}); err == nil {
		t.Error("non-numeric capture accepted")
	}
}

func TestSanity(t *testing.T) {
	s := Sanity{
		Require: []*regexp.Regexp{regexp.MustCompile(`Solution validates`)},
		Forbid:  []*regexp.Regexp{regexp.MustCompile(`(?i)error`)},
	}
	if err := s.Check("Solution validates: residual 1e-9"); err != nil {
		t.Errorf("valid output rejected: %v", err)
	}
	if err := s.Check("done"); err == nil {
		t.Error("missing required pattern accepted")
	}
	if err := s.Check("Solution validates\nERROR: NaN detected"); err == nil {
		t.Error("forbidden pattern accepted")
	}
}

func TestRatioEquation1(t *testing.T) {
	// The paper's worked example: E_I = 39.0/24.0 = 1.625 and
	// E_A = 51.0/24.0 = 2.125 on Cascade Lake; E_A = 124.2/39.2 = 3.168
	// on Rome.
	if e := Ratio(39.0, 24.0); math.Abs(e-1.625) > 1e-9 {
		t.Errorf("E_I = %g, want 1.625", e)
	}
	if e := Ratio(51.0, 24.0); math.Abs(e-2.125) > 1e-9 {
		t.Errorf("E_A = %g, want 2.125", e)
	}
	if e := Ratio(124.2, 39.2); math.Abs(e-3.168) > 1e-3 {
		t.Errorf("E_A(Rome) = %g, want 3.168", e)
	}
	if Ratio(1, 0) != 0 {
		t.Error("zero original must give 0")
	}
}

func TestPerfPortability(t *testing.T) {
	// Harmonic mean of equal values is the value.
	if pp := PerfPortability([]float64{0.5, 0.5, 0.5}); math.Abs(pp-0.5) > 1e-12 {
		t.Errorf("PP = %g", pp)
	}
	// One failure zeroes the metric (the metric's defining property).
	if pp := PerfPortability([]float64{0.9, 0.9, 0}); pp != 0 {
		t.Errorf("PP with failure = %g, want 0", pp)
	}
	if PerfPortability(nil) != 0 {
		t.Error("empty set PP should be 0")
	}
	// Harmonic mean is dominated by the worst platform.
	pp := PerfPortability([]float64{0.9, 0.1})
	if pp > 0.19 {
		t.Errorf("PP = %g should be pulled toward the worst efficiency", pp)
	}
}

func TestPerfPortabilityBounds(t *testing.T) {
	// Property: 0 < PP <= min? No: harmonic mean lies between min and
	// max of positive inputs.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		effs := make([]float64, len(raw))
		lo, hi := 2.0, -1.0
		for i, r := range raw {
			effs[i] = 0.01 + float64(r)/256.0
			if effs[i] < lo {
				lo = effs[i]
			}
			if effs[i] > hi {
				hi = effs[i]
			}
		}
		pp := PerfPortability(effs)
		return pp >= lo-1e-12 && pp <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	foms := map[string]Value{
		"triad": {Name: "triad", Value: 190.85, Unit: "GB/s"},
		"copy":  {Name: "copy", Value: 175.23, Unit: "GB/s"},
	}
	got := Table(foms)
	// Sorted: copy before triad.
	if !strings.Contains(got, "copy") || !strings.Contains(got, "triad") {
		t.Fatalf("table missing rows:\n%s", got)
	}
	if strings.Index(got, "copy") > strings.Index(got, "triad") {
		t.Error("rows not sorted")
	}
}

func TestValueString(t *testing.T) {
	v := Value{Name: "l0", Value: 95.36, Unit: "MDOF/s"}
	if v.String() != "l0=95.36 MDOF/s" {
		t.Errorf("String = %q", v.String())
	}
	u := Value{Name: "count", Value: 3}
	if u.String() != "count=3" {
		t.Errorf("String = %q", u.String())
	}
}
