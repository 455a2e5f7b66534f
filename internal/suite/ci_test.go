package suite

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/perfstore"
	"repro/internal/postprocess"
)

// TestCIPipelineVision exercises the paper's concluding vision end to end:
// "a sweep of performance data across diverse computer systems ... run as
// part of a CI pipeline, and enable researchers to measure and track the
// performance portability of their applications over time."
//
// Two simulated "nightly" sweeps run the whole suite across the estate,
// appending to the same perflogs; the post-processing layer assimilates
// both nights and the regression checker confirms performance is stable
// run-over-run (the deterministic simulation guarantees it here — on real
// systems this is exactly the check that would alarm).
func TestCIPipelineVision(t *testing.T) {
	dir := t.TempDir()
	perflogs := filepath.Join(dir, "perflogs")
	runner := core.New(filepath.Join(dir, "install"), perflogs)
	base := time.Date(2023, 7, 7, 2, 0, 0, 0, time.UTC)

	type target struct {
		bench core.Benchmark
		sys   string
	}
	matrix := []target{
		{NewHPGMG(), "archer2"},
		{NewHPGMG(), "cosma8"},
		{NewHPGMG(), "csd3"},
		{NewHPGMG(), "isambard-macs:cascadelake"},
		{NewHPCG("original"), "isambard-macs:cascadelake"},
		{NewHPCG("matrix-free"), "archer2"},
		{NewBabelStream("omp"), "paderborn-milan"},
		{NewBabelStream("cuda"), "isambard-macs:volta"},
	}
	for night := 0; night < 2; night++ {
		nightTime := base.AddDate(0, 0, night)
		runner.Now = func() time.Time { return nightTime }
		for _, tg := range matrix {
			rep, err := runner.Run(tg.bench, core.Options{System: tg.sys})
			if err != nil {
				t.Fatalf("night %d: %s on %s: %v", night, tg.bench.Name(), tg.sys, err)
			}
			if !rep.Pass() {
				t.Fatalf("night %d: %s on %s failed: %v", night, tg.bench.Name(), tg.sys, rep.Entry.Extra)
			}
		}
	}

	// Assimilate both nights across all systems in one pass.
	frame, err := postprocess.LoadFrame(perflogs)
	if err != nil {
		t.Fatal(err)
	}
	if frame.NumRows() != 2*len(matrix) {
		t.Fatalf("assimilated %d rows, want %d", frame.NumRows(), 2*len(matrix))
	}
	// Regression check per (system, benchmark) group on the HPGMG FOM.
	hpgmgOnly, err := frame.FilterEq("benchmark", "hpgmg-fv")
	if err != nil {
		t.Fatal(err)
	}
	store := perfstore.Open(perflogs)
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	reports, err := store.Regressions(perfstore.Query{Benchmark: "hpgmg-fv", FOM: "l0"}, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("regression groups = %d, want 4", len(reports))
	}
	for _, r := range reports {
		if r.Flagged {
			t.Errorf("deterministic rerun flagged as regression: %+v", r)
		}
		if r.Latest <= 0 {
			t.Errorf("group %s has no data", r.Group)
		}
	}
	// The energy captures are present for every run (future-work feature).
	if !frame.Has("est_energy_j") {
		t.Error("energy capture column missing")
	}
	// And a chart of the survey renders without manual data handling.
	cfg := &postprocess.PlotConfig{X: "system", Y: "l0", Title: "nightly HPGMG"}
	chart, err := postprocess.BarChart(hpgmgOnly, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "archer2") {
		t.Errorf("chart:\n%s", chart)
	}
}

// TestJobTimeoutFailsRun injects a payload that exceeds the scheduler's
// time limit; the pipeline must record a failed run, not hang or pass.
func TestJobTimeoutFailsRun(t *testing.T) {
	dir := t.TempDir()
	runner := core.New(filepath.Join(dir, "install"), "")
	b := NewHPGMG()
	// An enormous problem: simulated runtime exceeds the 1 h default
	// time limit on the slow Isambard MACS nodes.
	b.Log2BoxDim = 9
	b.BoxesPerRank = 512
	rep, err := runner.Run(b, core.Options{System: "isambard-macs:cascadelake"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass() {
		t.Fatalf("timed-out job passed: runtime %.1fs", rep.Job.Runtime())
	}
	if !strings.Contains(rep.Entry.Extra["error"], "TIMEOUT") {
		t.Errorf("error = %q, want TIMEOUT state", rep.Entry.Extra["error"])
	}
}
