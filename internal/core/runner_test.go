package core

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fom"
	"repro/internal/launcher"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

// echoBenchmark is a minimal benchmark whose payload emits a fixed FOM.
type echoBenchmark struct {
	name    string
	spec    string
	output  string
	execErr error
	elapsed time.Duration
}

func (e *echoBenchmark) Name() string { return e.name }
func (e *echoBenchmark) BuildSpec() string {
	if e.spec != "" {
		return e.spec
	}
	return "stream"
}
func (e *echoBenchmark) DefaultLayout() launcher.Layout {
	return launcher.Layout{NumTasks: 1, TasksPerNode: 1, CPUsPerTask: 1}
}
func (e *echoBenchmark) Args() []string { return []string{"--size", "large"} }
func (e *echoBenchmark) Execute(ctx *RunContext) (string, time.Duration, error) {
	if e.execErr != nil {
		return "", 0, e.execErr
	}
	out := e.output
	if out == "" {
		out = "RESULT OK\nrate: 42.5 GB/s\n"
	}
	d := e.elapsed
	if d == 0 {
		d = 3 * time.Second
	}
	return out, d, nil
}
func (e *echoBenchmark) Sanity() fom.Sanity {
	return fom.Sanity{Require: []*regexp.Regexp{regexp.MustCompile("RESULT OK")}}
}
func (e *echoBenchmark) PerfPatterns() []fom.Pattern {
	return []fom.Pattern{fom.MustPattern("rate", "GB/s", `rate: ([0-9.]+) GB/s`)}
}

func testRunner(t *testing.T) *Runner {
	t.Helper()
	dir := t.TempDir()
	r := New(filepath.Join(dir, "install"), filepath.Join(dir, "perflogs"))
	r.Now = func() time.Time { return time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC) }
	return r
}

func TestPipelineEndToEnd(t *testing.T) {
	r := testRunner(t)
	b := &echoBenchmark{name: "echo"}
	rep, err := r.Run(b, Options{System: "archer2"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("run failed: %+v", rep.Entry)
	}
	// The spec concretized against ARCHER2's environment.
	if rep.Spec == nil || !rep.Spec.Concrete {
		t.Fatal("no concrete spec")
	}
	if got := rep.Spec.Compiler.String(); got != "gcc@11.2.0" {
		t.Errorf("compiler = %s, want archer2 default gcc@11.2.0", got)
	}
	if len(rep.SpecTrace) == 0 {
		t.Error("concretizer trace missing (Principle 4)")
	}
	// The build happened and is recorded.
	if len(rep.Builds) == 0 || rep.Builds[len(rep.Builds)-1].Cached {
		t.Error("root build missing or unexpectedly cached")
	}
	// The job script is a SLURM script with the account and QOS from
	// the system config.
	for _, want := range []string{"#SBATCH", "--account=z19", "--qos=standard", "srun"} {
		if !strings.Contains(rep.JobScript, want) {
			t.Errorf("job script missing %q:\n%s", want, rep.JobScript)
		}
	}
	// The FOM was extracted.
	if v, ok := rep.FOMs["rate"]; !ok || v.Value != 42.5 {
		t.Errorf("FOMs = %v", rep.FOMs)
	}
	// The perflog has the entry.
	entries := wholeTree(t, filepath.Join(r.PerflogRoot, "archer2", "echo.log"))
	if len(entries) != 1 || !entries[0].Pass() {
		t.Fatalf("perflog entries: %+v", entries)
	}
	if entries[0].FOMs["rate"].Value != 42.5 {
		t.Errorf("logged FOM = %+v", entries[0].FOMs["rate"])
	}
}

func TestPipelinePBSSystem(t *testing.T) {
	r := testRunner(t)
	rep, err := r.Run(&echoBenchmark{name: "echo"}, Options{System: "isambard-macs:cascadelake"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.JobScript, "#PBS") {
		t.Errorf("expected PBS script:\n%s", rep.JobScript)
	}
	if !strings.Contains(rep.JobScript, "mpirun") {
		t.Errorf("expected mpirun launcher:\n%s", rep.JobScript)
	}
	// Isambard MACS defaults to gcc 9.2.0 (Table 3).
	if got := rep.Spec.Compiler.String(); got != "gcc@9.2.0" {
		t.Errorf("compiler = %s", got)
	}
}

func TestPipelineLocalSystem(t *testing.T) {
	r := testRunner(t)
	rep, err := r.Run(&echoBenchmark{name: "echo"}, Options{System: "local"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("local run failed: %+v", rep.Entry)
	}
	if rep.Job.Nodes[0] != "localhost" {
		t.Errorf("nodes = %v", rep.Job.Nodes)
	}
}

func TestSpecOverride(t *testing.T) {
	// The -S spack_spec= equivalent.
	r := testRunner(t)
	rep, err := r.Run(&echoBenchmark{name: "echo"}, Options{
		System: "archer2",
		Spec:   "stream%gcc@10.3.0 ~openmp",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Spec.Compiler.String(); got != "gcc@10.3.0" {
		t.Errorf("override compiler = %s", got)
	}
	if v := rep.Spec.Variants["openmp"]; v.Bool {
		t.Error("variant override lost")
	}
}

func TestLayoutOverrides(t *testing.T) {
	// The --setvar num_tasks= equivalents.
	r := testRunner(t)
	rep, err := r.Run(&echoBenchmark{name: "echo"}, Options{
		System:       "archer2",
		NumTasks:     8,
		TasksPerNode: 2,
		CPUsPerTask:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entry.Extra["num_tasks"] != "8" || rep.Entry.Extra["num_cpus_per_task"] != "8" {
		t.Errorf("extras = %v", rep.Entry.Extra)
	}
	if len(rep.Job.Nodes) != 4 {
		t.Errorf("nodes = %d, want 4", len(rep.Job.Nodes))
	}
	if !strings.Contains(rep.JobScript, "--ntasks=8") {
		t.Errorf("script:\n%s", rep.JobScript)
	}
}

func TestSanityFailureRecordsFail(t *testing.T) {
	r := testRunner(t)
	b := &echoBenchmark{name: "bad", output: "garbage with no markers"}
	rep, err := r.Run(b, Options{System: "archer2"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass() {
		t.Error("sanity failure must fail the run")
	}
	if rep.Entry.Extra["error"] == "" {
		t.Error("failure reason missing from perflog entry")
	}
}

func TestExecutionErrorRecordsFail(t *testing.T) {
	r := testRunner(t)
	b := &echoBenchmark{name: "crash", execErr: errBoom{}}
	rep, err := r.Run(b, Options{System: "archer2"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass() {
		t.Error("crashed payload must fail")
	}
	if !strings.Contains(rep.Entry.Extra["error"], "FAILED") {
		t.Errorf("error = %q", rep.Entry.Extra["error"])
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

func TestUnknownSystemErrors(t *testing.T) {
	r := testRunner(t)
	if _, err := r.Run(&echoBenchmark{name: "echo"}, Options{System: "summit"}); err == nil {
		t.Error("unknown system accepted")
	}
	if _, err := r.Run(&echoBenchmark{name: "echo"}, Options{}); err == nil {
		t.Error("missing system accepted")
	}
	if _, err := r.Run(nil, Options{System: "archer2"}); err == nil {
		t.Error("nil benchmark accepted")
	}
}

func TestBadSpecErrors(t *testing.T) {
	r := testRunner(t)
	if _, err := r.Run(&echoBenchmark{name: "echo", spec: "@bad"}, Options{System: "archer2"}); err == nil {
		t.Error("unparseable spec accepted")
	}
	if _, err := r.Run(&echoBenchmark{name: "echo", spec: "no-such-package"}, Options{System: "archer2"}); err == nil {
		t.Error("unknown package accepted")
	}
}

func TestRebuildEveryRunDefault(t *testing.T) {
	// Principle 3: two consecutive runs both rebuild the root.
	r := testRunner(t)
	b := &echoBenchmark{name: "echo"}
	rep1, err := r.Run(b, Options{System: "archer2"})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := r.Run(b, Options{System: "archer2"})
	if err != nil {
		t.Fatal(err)
	}
	root1 := rep1.Builds[len(rep1.Builds)-1]
	root2 := rep2.Builds[len(rep2.Builds)-1]
	if root1.Cached || root2.Cached {
		t.Error("RebuildEveryRun must rebuild the benchmark each run")
	}
	// With the principle disabled, the second run reuses the cache.
	r.RebuildEveryRun = false
	rep3, err := r.Run(b, Options{System: "archer2"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Builds[len(rep3.Builds)-1].Cached {
		t.Error("cache should be hit with RebuildEveryRun off")
	}
}

func TestRunManyAcrossSystems(t *testing.T) {
	r := testRunner(t)
	b := &echoBenchmark{name: "echo"}
	reports, err := r.RunMany(b, []string{"archer2", "cosma8", "csd3"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	seen := map[string]bool{}
	for _, rep := range reports {
		if !rep.Pass() {
			t.Errorf("%s failed", rep.System)
		}
		seen[rep.System] = true
	}
	if !seen["archer2"] || !seen["cosma8"] || !seen["csd3"] {
		t.Errorf("systems = %v", seen)
	}
	// All three perflogs exist for cross-system assimilation.
	entries := wholeTree(t, r.PerflogRoot)
	if len(entries) != 3 {
		t.Errorf("assimilated %d entries", len(entries))
	}
}

func TestEnergyEstimateRecorded(t *testing.T) {
	// The paper's planned "energy consumption" capture: every perflog
	// entry carries an energy estimate for its allocation.
	r := testRunner(t)
	rep, err := r.Run(&echoBenchmark{name: "echo", elapsed: 10 * time.Second}, Options{System: "archer2"})
	if err != nil {
		t.Fatal(err)
	}
	energy := rep.Entry.Extra["est_energy_j"]
	if energy == "" {
		t.Fatal("est_energy_j missing from perflog entry")
	}
	var joules float64
	if _, err := fmt.Sscanf(energy, "%g", &joules); err != nil {
		t.Fatal(err)
	}
	// 10 s on one 450 W Rome node.
	if joules < 4000 || joules > 5000 {
		t.Errorf("energy = %g J, want ~4500", joules)
	}
}

func TestStageDurationExtras(t *testing.T) {
	r := testRunner(t)
	// A 1ms payload keeps the local scheduler's job clock comparable to
	// wall time (the default echoBenchmark claims a simulated 3s).
	b := &echoBenchmark{name: "echo", elapsed: time.Millisecond}
	t0 := time.Now()
	rep, err := r.Run(b, Options{System: "local"})
	wall := time.Since(t0).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	stages := []string{"resolve", "concretize", "build", "schedule", "queue", "execute", "extract"}
	var sum float64
	for _, s := range stages {
		key := "stage_" + s + "_s"
		text, ok := rep.Entry.Extra[key]
		if !ok {
			t.Fatalf("entry missing %s; extras = %v", key, rep.Entry.Extra)
		}
		v, perr := strconv.ParseFloat(text, 64)
		if perr != nil || v < 0 {
			t.Fatalf("%s = %q, want non-negative float", key, text)
		}
		sum += v
	}
	// On the local scheduler every stage is wall-clock (queue is 0 and
	// execute is real elapsed time), so the stage durations must sum to
	// approximately the total pipeline time — never more than the
	// whole Run took (schedule overlaps queue+execute, hence the 2x
	// allowance on the upper bound), and at least the execute time.
	jobRuntime, _ := strconv.ParseFloat(rep.Entry.Extra["job_runtime_s"], 64)
	execS, _ := strconv.ParseFloat(rep.Entry.Extra["stage_execute_s"], 64)
	if math.Abs(execS-jobRuntime) > 1e-9 {
		t.Errorf("stage_execute_s = %g, want job_runtime_s = %g", execS, jobRuntime)
	}
	if sum > 2*wall+0.05 {
		t.Errorf("stage sum %.6fs implausibly exceeds pipeline wall time %.6fs", sum, wall)
	}
	if sum < execS {
		t.Errorf("stage sum %.6f < execute stage %.6f", sum, execS)
	}
	// A simulated-scheduler run records the scheduler's job clock for
	// queue/execute (not wall time) — and the extras survive the
	// perflog round trip.
	rep2, err := r.Run(b, Options{System: "archer2"})
	if err != nil {
		t.Fatal(err)
	}
	exec2, _ := strconv.ParseFloat(rep2.Entry.Extra["stage_execute_s"], 64)
	rt2, _ := strconv.ParseFloat(rep2.Entry.Extra["job_runtime_s"], 64)
	if math.Abs(exec2-rt2) > 1e-9 {
		t.Errorf("simulated stage_execute_s = %g, want %g", exec2, rt2)
	}
	entries := wholeTree(t, filepath.Join(r.PerflogRoot, "archer2", "echo.log"))
	if got := entries[len(entries)-1].Extra["stage_build_s"]; got == "" {
		t.Error("stage_build_s missing from the perflog round trip")
	}
}

func TestRunContextPublishesTrace(t *testing.T) {
	r := testRunner(t)
	tr := telemetry.NewTracer(4)
	ctx := telemetry.WithTraceID(telemetry.WithTracer(context.Background(), tr), "run-test-1")
	if _, err := r.RunContext(ctx, &echoBenchmark{name: "echo"}, Options{System: "archer2"}); err != nil {
		t.Fatal(err)
	}
	trace, ok := tr.Get("run-test-1")
	if !ok {
		t.Fatalf("trace not published; have %d traces", tr.Len())
	}
	v := trace.Root.View()
	if v.Name != "run" || v.Attrs["benchmark"] != "echo" || v.Attrs["system"] != "archer2" {
		t.Errorf("root = %+v", v)
	}
	byName := map[string]telemetry.SpanView{}
	for _, c := range v.Children {
		byName[c.Name] = c
	}
	for _, want := range []string{"resolve", "concretize", "build", "schedule", "extract", "append"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("trace missing stage span %q", want)
		}
	}
	if len(byName["build"].Children) == 0 {
		t.Error("build span has no per-DAG-node children")
	}
	if byName["schedule"].Attrs["state"] != "COMPLETED" {
		t.Errorf("schedule span attrs = %v", byName["schedule"].Attrs)
	}
}

func TestRunManyCollectsPerTargetErrors(t *testing.T) {
	r := testRunner(t)
	b := &echoBenchmark{name: "echo"}
	reports, err := r.RunMany(b, []string{"archer2", "no-such-system", "csd3"}, Options{})
	if err == nil {
		t.Fatal("want an aggregate error for the unknown system")
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2 (survey must continue past the failure)", len(reports))
	}
	if reports[0].System != "archer2" || reports[1].System != "csd3" {
		t.Errorf("report systems = %s, %s", reports[0].System, reports[1].System)
	}
	if !strings.Contains(err.Error(), "no-such-system") {
		t.Errorf("aggregate error does not name the failing target: %v", err)
	}
	// Both healthy systems still produced perflog entries.
	for _, sys := range []string{"archer2", "csd3"} {
		if len(wholeTree(t, filepath.Join(r.PerflogRoot, sys, "echo.log"))) == 0 {
			t.Errorf("no perflog entries for %s", sys)
		}
	}
}

// loadFaults arms the default fault registry for one test.
func loadFaults(t *testing.T, seed int64, schedule string) {
	t.Helper()
	rules, err := faultinject.ParseSchedule(schedule)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Load(seed, rules); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Reset)
}

func fastRetry() retry.Policy {
	return retry.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
}

func TestScheduleStageRetriesTransientSubmitFault(t *testing.T) {
	// Two injected submit rejections: the stage retry policy absorbs
	// both, the run passes, and the retries are visible in /metrics.
	loadFaults(t, 1, "scheduler.submit:error:times=2")
	r := testRunner(t)
	r.Retry = fastRetry()
	before, _ := telemetry.DefaultRegistry.Value("retry_retries_total", "runner.schedule")
	rep, err := r.Run(&echoBenchmark{name: "echo"}, Options{System: "archer2"})
	if err != nil {
		t.Fatalf("run with transient submit faults: %v", err)
	}
	if !rep.Pass() {
		t.Error("run did not pass after retries")
	}
	after, _ := telemetry.DefaultRegistry.Value("retry_retries_total", "runner.schedule")
	if after-before < 2 {
		t.Errorf("retry_retries_total{runner.schedule} grew by %v, want >= 2", after-before)
	}
}

func TestRetryExhaustionSurfacesTypedFault(t *testing.T) {
	// Every submit rejected: retries exhaust and the typed fault
	// surfaces through the exhaustion wrapper.
	loadFaults(t, 1, "scheduler.submit:error")
	r := testRunner(t)
	r.Retry = fastRetry()
	before, _ := telemetry.DefaultRegistry.Value("retry_exhausted_total", "runner.schedule")
	_, err := r.Run(&echoBenchmark{name: "echo"}, Options{System: "archer2"})
	if err == nil {
		t.Fatal("run succeeded with every submit rejected")
	}
	if !faultinject.Is(err) {
		t.Errorf("error lost its fault type: %v", err)
	}
	if !strings.Contains(err.Error(), "gave up after") {
		t.Errorf("error does not mention exhaustion: %v", err)
	}
	after, _ := telemetry.DefaultRegistry.Value("retry_exhausted_total", "runner.schedule")
	if after-before < 1 {
		t.Errorf("retry_exhausted_total{runner.schedule} grew by %v, want >= 1", after-before)
	}
}

func TestStageTimeoutInterruptsInjectedHang(t *testing.T) {
	// A 2s injected hang in the build path against a 50ms stage budget:
	// the cooperative deadline interrupts the delay and the run fails
	// fast with a timeout error naming the stage.
	loadFaults(t, 1, "buildsys.install:delay:d=2s")
	r := testRunner(t)
	r.StageTimeout = 50 * time.Millisecond
	start := time.Now()
	_, err := r.Run(&echoBenchmark{name: "echo"}, Options{System: "archer2"})
	if err == nil {
		t.Fatal("run succeeded despite injected hang")
	}
	if !strings.Contains(err.Error(), "timed out") || !strings.Contains(err.Error(), "build") {
		t.Errorf("error does not report a build-stage timeout: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("run took %v: the injected hang was not interrupted", elapsed)
	}
}
