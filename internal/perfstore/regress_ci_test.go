package perfstore

import (
	"testing"
	"time"

	"repro/internal/perflog"
	"repro/internal/stats"
)

// statEntry builds an entry whose FOM carries repetition statistics
// computed from the given repetition values.
func statEntry(system, benchmark string, job int, at time.Time, fomName string, reps []float64) *perflog.Entry {
	s := stats.Summarize(reps, 0, 0, uint64(job)+1)
	e := entry(system, benchmark, job, at, map[string]float64{fomName: s.Mean})
	e.SetRepStats(fomName, perflog.RepStats{
		N: s.N, Mean: s.Mean, Stddev: s.Stddev, RSD: s.RSD, CILo: s.CILo, CIHi: s.CIHi,
	})
	return e
}

func pt(v float64) SeriesPoint { return SeriesPoint{Value: v} }

func statPt(reps []float64, seed uint64) SeriesPoint {
	s := stats.Summarize(reps, 0, 0, seed)
	return SeriesPoint{Value: s.Mean, Stats: &perflog.RepStats{
		N: s.N, Mean: s.Mean, Stddev: s.Stddev, RSD: s.RSD, CILo: s.CILo, CIHi: s.CIHi,
	}}
}

func TestEvalSeriesPointsCIRegression(t *testing.T) {
	// Baseline runs near 100; the latest run's repetitions collapsed to
	// ~60 with a tight CI — clearly below the baseline envelope.
	points := []SeriesPoint{
		statPt([]float64{99, 100, 101}, 1),
		statPt([]float64{100, 101, 99}, 2),
		statPt([]float64{60, 61, 59}, 3),
	}
	r, ok := EvalSeriesPoints(points, 0.10, 0, DefaultRSDGate)
	if !ok {
		t.Fatal("no verdict")
	}
	if !r.Flagged || r.Verdict != VerdictRegressed || r.Method != MethodCI {
		t.Fatalf("report = %+v, want CI-flagged regression", r)
	}
	if r.LatestN != 3 || r.LatestHi >= r.BaselineLo {
		t.Fatalf("interval columns: %+v", r)
	}
}

func TestEvalSeriesPointsCIOverlapNotFlagged(t *testing.T) {
	// A ~3% dip whose CI still overlaps the baseline envelope: the
	// tolerance rule at 2% would flag it, the CI rule must not.
	points := []SeriesPoint{
		statPt([]float64{95, 100, 105}, 1),
		statPt([]float64{96, 100, 104}, 2),
		statPt([]float64{92, 97, 102}, 3),
	}
	r, ok := EvalSeriesPoints(points, 0.02, 0, DefaultRSDGate)
	if !ok {
		t.Fatal("no verdict")
	}
	if r.Method != MethodCI {
		t.Fatalf("method = %s, want ci", r.Method)
	}
	if r.Flagged {
		t.Fatalf("overlapping CIs flagged: %+v", r)
	}
	if r.Verdict != VerdictOK {
		t.Fatalf("verdict = %s, want ok", r.Verdict)
	}
}

func TestEvalSeriesPointsVarianceGate(t *testing.T) {
	// The latest run is wildly noisy (RSD far above 10%): unstable, not
	// regressed, regardless of how low its mean landed.
	points := []SeriesPoint{
		statPt([]float64{99, 100, 101}, 1),
		statPt([]float64{40, 100, 160}, 2),
	}
	r, ok := EvalSeriesPoints(points, 0.10, 0, DefaultRSDGate)
	if !ok {
		t.Fatal("no verdict")
	}
	if r.Verdict != VerdictUnstable || r.Method != MethodVariance || r.Flagged {
		t.Fatalf("report = %+v, want unstable via variance gate", r)
	}
	if r.LatestRSD <= DefaultRSDGate {
		t.Fatalf("LatestRSD = %v, want above the gate", r.LatestRSD)
	}
	// With the gate disabled the same series is judged normally.
	r2, ok := EvalSeriesPoints(points, 0.10, 0, 0)
	if !ok || r2.Verdict == VerdictUnstable {
		t.Fatalf("gate-off report = %+v ok=%v", r2, ok)
	}
}

func TestEvalSeriesPointsUnstableBaselineExcluded(t *testing.T) {
	// An unstable run in the baseline window must not drag the baseline
	// mean; only stable history judges the latest run.
	points := []SeriesPoint{
		statPt([]float64{99, 100, 101}, 1),
		statPt([]float64{10, 100, 190}, 2), // unstable, mean 100 but huge spread
		statPt([]float64{98, 100, 102}, 3),
		pt(99),
	}
	r, ok := EvalSeriesPoints(points, 0.10, 0, DefaultRSDGate)
	if !ok {
		t.Fatal("no verdict")
	}
	if r.Samples != 2 {
		t.Fatalf("baseline samples = %d, want 2 (unstable point excluded)", r.Samples)
	}
	if r.Flagged {
		t.Fatalf("stable latest flagged: %+v", r)
	}
}

func TestEvalSeriesPointsTwoRepsFallsBackToTolerance(t *testing.T) {
	// n=2 is too small for a CI verdict: the fixed tolerance judges it.
	points := []SeriesPoint{
		statPt([]float64{99, 101}, 1),
		statPt([]float64{80, 82}, 2),
	}
	r, ok := EvalSeriesPoints(points, 0.10, 0, DefaultRSDGate)
	if !ok {
		t.Fatal("no verdict")
	}
	if r.Method != MethodTolerance || !r.Flagged {
		t.Fatalf("report = %+v, want tolerance-flagged", r)
	}
	if r.LatestN != 2 {
		t.Fatalf("LatestN = %d, want 2", r.LatestN)
	}
}

// TestEvalSeriesBackCompat pins the fallback: plain value series (pre-PR
// perflog lines) must evaluate exactly as the old fixed-tolerance rule
// did, field for field.
func TestEvalSeriesBackCompat(t *testing.T) {
	// oldEvalSeries is the pre-repetition implementation, verbatim.
	oldEvalSeries := func(vals []float64, tolerance float64, window int) (Report, bool) {
		clean := vals[:0:0]
		for _, v := range vals {
			if v == v { // !NaN
				clean = append(clean, v)
			}
		}
		if len(clean) < 2 {
			return Report{}, false
		}
		latest := clean[len(clean)-1]
		base := clean[:len(clean)-1]
		if window > 0 && len(base) > window {
			base = base[len(base)-window:]
		}
		sum := 0.0
		for _, v := range base {
			sum += v
		}
		mean := sum / float64(len(base))
		change := 0.0
		if mean != 0 {
			change = (latest - mean) / mean
		}
		return Report{
			Baseline: mean, Latest: latest, Change: change,
			Flagged: change < -tolerance, Samples: len(base),
		}, true
	}
	series := [][]float64{
		{100, 100, 90},
		{95.36, 94.8, 60.0},
		{126.1, 125.8},
		{1, 2, 3, 4, 5, 6, 2},
		{0, 0, 0},
		{100},
		{},
	}
	for _, vals := range series {
		for _, window := range []int{0, 2, 3} {
			for _, tol := range []float64{0.02, 0.10} {
				want, wantOK := oldEvalSeries(vals, tol, window)
				got, gotOK := evalSeries(vals, tol, window)
				if gotOK != wantOK {
					t.Fatalf("%v tol=%v w=%d: ok=%v want %v", vals, tol, window, gotOK, wantOK)
				}
				if got.Baseline != want.Baseline || got.Latest != want.Latest ||
					got.Change != want.Change || got.Flagged != want.Flagged ||
					got.Samples != want.Samples {
					t.Fatalf("%v tol=%v w=%d: got %+v want %+v", vals, tol, window, got, want)
				}
			}
		}
	}
}

func TestRegressionsWithRepStats(t *testing.T) {
	root := t.TempDir()
	for i, reps := range [][]float64{
		{99, 100, 101},
		{100, 101, 99},
		{60, 61, 59},
	} {
		e := statEntry("archer2", "hpgmg-fv", i+1, t0.Add(time.Duration(i)*time.Hour), "l0", reps)
		if err := perflog.Append(root, "archer2", "hpgmg-fv", e); err != nil {
			t.Fatal(err)
		}
	}
	// One noisy group on another system: surfaces as unstable.
	for i, reps := range [][]float64{
		{99, 100, 101},
		{40, 100, 160},
	} {
		e := statEntry("csd3", "hpgmg-fv", i+1, t0.Add(time.Duration(i)*time.Hour), "l0", reps)
		if err := perflog.Append(root, "csd3", "hpgmg-fv", e); err != nil {
			t.Fatal(err)
		}
	}
	s := Open(root)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	reports, err := s.Regressions(Query{FOM: "l0", GroupBy: []string{"system"}}, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %+v", reports)
	}
	archer, csd3 := reports[0], reports[1]
	if archer.Group != "archer2" || !archer.Flagged || archer.Method != MethodCI || archer.Verdict != VerdictRegressed {
		t.Fatalf("archer2 = %+v, want CI regression", archer)
	}
	if csd3.Group != "csd3" || csd3.Verdict != VerdictUnstable || csd3.Flagged {
		t.Fatalf("csd3 = %+v, want unstable", csd3)
	}
}

func TestAggregateVarianceGate(t *testing.T) {
	root := t.TempDir()
	// Two stable entries (100, 102) and one unstable entry whose point
	// value (200) must not pollute min/max/mean/last.
	es := []*perflog.Entry{
		statEntry("archer2", "hpgmg-fv", 1, t0, "l0", []float64{99, 100, 101}),
		statEntry("archer2", "hpgmg-fv", 2, t0.Add(time.Hour), "l0", []float64{101, 102, 103}),
		statEntry("archer2", "hpgmg-fv", 3, t0.Add(2*time.Hour), "l0", []float64{80, 200, 320}),
	}
	for _, e := range es {
		if err := perflog.Append(root, "archer2", "hpgmg-fv", e); err != nil {
			t.Fatal(err)
		}
	}
	s := Open(root)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 10} { // 0 = map-merge path, >0 = Select path
		aggs, err := s.Aggregate(Query{FOM: "l0", Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if len(aggs) != 1 {
			t.Fatalf("limit=%d: aggs = %+v", limit, aggs)
		}
		a := aggs[0]
		if a.Count != 3 || a.Unstable != 1 {
			t.Fatalf("limit=%d: count=%d unstable=%d, want 3/1", limit, a.Count, a.Unstable)
		}
		if a.Mean != 101 || a.Min != 100 || a.Max != 102 || a.Last != 102 {
			t.Fatalf("limit=%d: %+v, want stable-only min/max/mean/last", limit, a)
		}
	}
	// Gate disabled: the noisy entry contributes again.
	s.RSDGate = -1
	aggs, err := s.Aggregate(Query{FOM: "l0"})
	if err != nil {
		t.Fatal(err)
	}
	if aggs[0].Unstable != 0 || aggs[0].Max != 200 {
		t.Fatalf("gate-off agg = %+v", aggs[0])
	}
}

func TestAggregateAllUnstableGroup(t *testing.T) {
	root := t.TempDir()
	e := statEntry("archer2", "hpgmg-fv", 1, t0, "l0", []float64{10, 100, 190})
	e2 := statEntry("archer2", "hpgmg-fv", 2, t0.Add(time.Hour), "l0", []float64{20, 100, 180})
	for _, x := range []*perflog.Entry{e, e2} {
		if err := perflog.Append(root, "archer2", "hpgmg-fv", x); err != nil {
			t.Fatal(err)
		}
	}
	s := Open(root)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	aggs, err := s.Aggregate(Query{FOM: "l0"})
	if err != nil {
		t.Fatal(err)
	}
	a := aggs[0]
	if a.Count != 2 || a.Unstable != 2 {
		t.Fatalf("agg = %+v, want all entries unstable", a)
	}
	if a.Mean != 0 || a.Min != 0 || a.Max != 0 || a.Last != 0 {
		t.Fatalf("all-unstable group leaked values: %+v", a)
	}
}
