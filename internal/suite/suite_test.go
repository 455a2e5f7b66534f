package suite

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func testRunner(t *testing.T) *core.Runner {
	t.Helper()
	dir := t.TempDir()
	r := core.New(filepath.Join(dir, "install"), filepath.Join(dir, "perflogs"))
	r.Now = func() time.Time { return time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC) }
	return r
}

func TestRegistry(t *testing.T) {
	if len(All()) < 3 {
		t.Fatalf("suite has %d benchmarks", len(All()))
	}
	b, err := ByName("hpgmg-fv")
	if err != nil || b.Name() != "hpgmg-fv" {
		t.Errorf("ByName: %v, %v", b, err)
	}
	if _, err := ByName("linpack"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestNormalizeModelSpec(t *testing.T) {
	cases := []struct{ in, want string }{
		{"babelstream%gcc@9.2.0 +omp", "babelstream%gcc@9.2.0 model=omp"},
		{"babelstream +cuda", "babelstream model=cuda"},
		{"babelstream model=tbb", "babelstream model=tbb"},
		{"babelstream ~omp", "babelstream"}, // negative toggle just drops
		{"hpcg +openmp", "hpcg +openmp"},    // other packages untouched
	}
	for _, c := range cases {
		got, err := NormalizeModelSpec(c.in)
		if err != nil {
			t.Errorf("NormalizeModelSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("NormalizeModelSpec(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := NormalizeModelSpec("babelstream +omp +cuda"); err == nil {
		t.Error("two models accepted")
	}
	if _, err := NormalizeModelSpec("@bad"); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestHPGMGTable4ThroughPipeline(t *testing.T) {
	// The full §3.3 workflow: the same benchmark + command-line layout
	// on four systems, FOMs landing in perflogs, values matching
	// Table 4's shape.
	r := testRunner(t)
	b := NewHPGMG()
	paper := map[string][3]float64{
		"archer2":       {95.36, 83.43, 62.18},
		"cosma8":        {81.67, 72.96, 75.09},
		"csd3":          {126.10, 94.39, 49.40},
		"isambard-macs": {30.59, 25.55, 17.55},
	}
	targets := map[string]string{
		"archer2":       "archer2",
		"cosma8":        "cosma8",
		"csd3":          "csd3",
		"isambard-macs": "isambard-macs:cascadelake",
	}
	for sys, target := range targets {
		rep, err := r.Run(b, core.Options{System: target})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if !rep.Pass() {
			t.Fatalf("%s: run failed: %v", sys, rep.Entry.Extra)
		}
		for i, lvl := range []string{"l0", "l1", "l2"} {
			got := rep.FOMs[lvl].Value
			want := paper[sys][i]
			if rel := math.Abs(got-want) / want; rel > 0.25 {
				t.Errorf("%s %s = %.2f MDOF/s, paper %.2f (rel %.2f)", sys, lvl, got, want, rel)
			}
		}
		// The hpgmg build must have used the system MPI (Table 3).
		joined := strings.Join(rep.SpecTrace, "\n")
		if !strings.Contains(joined, "mpi: virtual provided by") {
			t.Errorf("%s: MPI resolution missing from trace", sys)
		}
	}
}

func TestHPCGVariantsThroughPipeline(t *testing.T) {
	r := testRunner(t)
	// Original CSR on the simulated Isambard Cascade Lake, MPI-only.
	rep, err := r.Run(NewHPCG("original"), core.Options{System: "isambard-macs:cascadelake"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("run failed: %v", rep.Entry.Extra)
	}
	got := rep.FOMs["gflops"].Value
	if math.Abs(got-24.0)/24.0 > 0.2 {
		t.Errorf("original CSR = %.1f GF/s, paper 24.0", got)
	}
	// The matrix-free variant must beat it.
	rep2, err := r.Run(NewHPCG("matrix-free"), core.Options{System: "isambard-macs:cascadelake"})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.FOMs["gflops"].Value <= got {
		t.Error("matrix-free should beat original CSR")
	}
	// intel-avx2 on an AMD system must fail to concretize (Table 2 N/A).
	if _, err := r.Run(NewHPCG("intel-avx2"), core.Options{System: "archer2"}); err == nil {
		t.Error("intel-avx2 on archer2 should be rejected")
	}
}

func TestBabelStreamSurveyThroughPipeline(t *testing.T) {
	r := testRunner(t)
	// OpenMP on the simulated Milan system (the 2^29 array platform).
	rep, err := r.Run(NewBabelStream("omp"), core.Options{System: "paderborn-milan"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("run failed: %v", rep.Entry.Extra)
	}
	triad := rep.FOMs["triad_mbps"].Value / 1000 / 1000 // MB/s -> GB/s... MBps value is in MB/s
	_ = triad
	gbs := rep.FOMs["triad_mbps"].Value / 1000
	eff := gbs / 409.6
	if eff < 0.7 || eff > 0.95 {
		t.Errorf("Milan OpenMP Triad efficiency = %.2f", eff)
	}
	// CUDA on a CPU partition must fail at run time (the Fig. 2 "*").
	repBad, err := r.Run(NewBabelStream("cuda"), core.Options{System: "csd3"})
	if err != nil {
		t.Fatal(err)
	}
	if repBad.Pass() {
		t.Error("CUDA on a CPU system should not pass")
	}
	// CUDA on the Volta partition passes near peak.
	repV, err := r.Run(NewBabelStream("cuda"), core.Options{System: "isambard-macs:volta"})
	if err != nil {
		t.Fatal(err)
	}
	if !repV.Pass() {
		t.Fatalf("volta run failed: %v", repV.Entry.Extra)
	}
	if eff := repV.FOMs["triad_mbps"].Value / 1000 / 900; eff < 0.88 {
		t.Errorf("CUDA/Volta efficiency = %.2f", eff)
	}
}

func TestSuiteRunsForRealOnLocalSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("real host runs take seconds")
	}
	r := testRunner(t)
	// BabelStream: genuinely runs the Go kernels.
	bs := NewBabelStream("omp")
	bs.ArraySize = 1 << 20
	bs.NumTimes = 5
	rep, err := r.Run(bs, core.Options{System: "local"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("local babelstream failed: %v", rep.Entry.Extra)
	}
	if rep.FOMs["triad_mbps"].Value <= 0 {
		t.Error("no measured triad rate")
	}
	// HPCG: real CG solve.
	h := NewHPCG("matrix-free")
	rep2, err := r.Run(h, core.Options{System: "local"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Pass() {
		t.Fatalf("local hpcg failed: %v", rep2.Entry.Extra)
	}
	// HPGMG: real multigrid solve.
	g := NewHPGMG()
	g.HostLog2Dim = 4
	rep3, err := r.Run(g, core.Options{System: "local"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Pass() {
		t.Fatalf("local hpgmg failed: %v", rep3.Entry.Extra)
	}
	if rep3.FOMs["l0"].Value <= 0 {
		t.Error("no measured l0 rate")
	}
}

func TestLayoutOverrideFlowsToSimulation(t *testing.T) {
	// Halving the node count must slow the simulated HPGMG solve.
	r := testRunner(t)
	b := NewHPGMG()
	full, err := r.Run(b, core.Options{System: "archer2"})
	if err != nil {
		t.Fatal(err)
	}
	small, err := r.Run(b, core.Options{System: "archer2", NumTasks: 4, TasksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if small.FOMs["l0"].Value >= full.FOMs["l0"].Value {
		t.Errorf("4-task run (%.1f) should be slower than 8-task (%.1f)",
			small.FOMs["l0"].Value, full.FOMs["l0"].Value)
	}
}

func TestLocalDistributedHPCG(t *testing.T) {
	// A multi-task local HPCG run executes the goroutine-rank solver.
	r := testRunner(t)
	b := NewHPCG("matrix-free")
	rep, err := r.Run(b, core.Options{System: "local", NumTasks: 4, TasksPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("distributed local run failed: %v", rep.Entry.Extra)
	}
	if rep.FOMs["gflops"].Value <= 0 {
		t.Error("no GFLOP/s extracted")
	}
	if !strings.Contains(rep.Job.Stdout, "ranks=4") {
		t.Errorf("stdout does not show the rank count:\n%s", rep.Job.Stdout)
	}
}

func TestLocalDistributedHPGMG(t *testing.T) {
	r := testRunner(t)
	b := NewHPGMG()
	b.HostLog2Dim = 4
	rep, err := r.Run(b, core.Options{System: "local", NumTasks: 3, TasksPerNode: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("distributed local hpgmg failed: %v", rep.Entry.Extra)
	}
	for _, lvl := range []string{"l0", "l1", "l2"} {
		if rep.FOMs[lvl].Value <= 0 {
			t.Errorf("%s = %g", lvl, rep.FOMs[lvl].Value)
		}
	}
	if !strings.Contains(rep.Job.Stdout, "distributed host run") {
		t.Errorf("stdout:\n%s", rep.Job.Stdout)
	}
}

// TestPatternsCompiledOnce: every benchmark hands out the same compiled
// regexps on every call, so a run compiles nothing.
func TestPatternsCompiledOnce(t *testing.T) {
	for _, b := range All() {
		s1, s2 := b.Sanity(), b.Sanity()
		if len(s1.Require) == 0 || s1.Require[0] != s2.Require[0] {
			t.Errorf("%s: Sanity compiled its patterns again", b.Name())
		}
		p1, p2 := b.PerfPatterns(), b.PerfPatterns()
		if len(p1) == 0 || p1[0].Regex != p2[0].Regex {
			t.Errorf("%s: PerfPatterns compiled its patterns again", b.Name())
		}
	}
}
