package core

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/internal/buildsys"
	"repro/internal/faultinject"
	"repro/internal/fom"
	"repro/internal/launcher"
	"repro/internal/perflog"
)

// varyBenchmark emits a FOM that varies with the repetition index, so
// warm-up discard and aggregation are observable; it also records the
// RunContext of every execution.
type varyBenchmark struct {
	mu       sync.Mutex
	contexts []*RunContext
	value    func(rep int) float64
}

func (v *varyBenchmark) Name() string      { return "vary" }
func (v *varyBenchmark) BuildSpec() string { return "stream" }
func (v *varyBenchmark) DefaultLayout() launcher.Layout {
	return launcher.Layout{NumTasks: 1, TasksPerNode: 1, CPUsPerTask: 1}
}
func (v *varyBenchmark) Args() []string { return nil }
func (v *varyBenchmark) Execute(ctx *RunContext) (string, time.Duration, error) {
	v.mu.Lock()
	v.contexts = append(v.contexts, ctx)
	v.mu.Unlock()
	val := 100.0 + 10*float64(ctx.Repetition)
	if v.value != nil {
		val = v.value(ctx.Repetition)
	}
	return fmt.Sprintf("RESULT OK\nrate: %g GB/s\n", val), time.Second, nil
}
func (v *varyBenchmark) Sanity() fom.Sanity {
	return fom.Sanity{Require: []*regexp.Regexp{regexp.MustCompile("RESULT OK")}}
}
func (v *varyBenchmark) PerfPatterns() []fom.Pattern {
	return []fom.Pattern{fom.MustPattern("rate", "GB/s", `rate: ([0-9.]+) GB/s`)}
}

func TestRepetitionRunAggregates(t *testing.T) {
	r := testRunner(t)
	b := &varyBenchmark{}
	rep, err := r.Run(b, Options{System: "archer2", Repetitions: 3, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Fatalf("run failed: %+v", rep.Entry)
	}
	// 1 warm-up + 3 measured executions, repetition indices 0..3.
	if len(b.contexts) != 4 {
		t.Fatalf("executions = %d, want 4", len(b.contexts))
	}
	for i, ctx := range b.contexts {
		if ctx.Repetition != i {
			t.Errorf("execution %d saw Repetition=%d", i, ctx.Repetition)
		}
	}
	// Warm-up (rep 0 → 100) discarded; measured series is 110, 120, 130.
	wantSeries := []float64{110, 120, 130}
	got := rep.RepSeries["rate"]
	if len(got) != 3 || got[0] != wantSeries[0] || got[1] != wantSeries[1] || got[2] != wantSeries[2] {
		t.Fatalf("RepSeries = %v, want %v", got, wantSeries)
	}
	// The point value is the measured mean.
	if v := rep.FOMs["rate"]; math.Abs(v.Value-120) > 1e-9 || v.Unit != "GB/s" {
		t.Fatalf("FOM = %+v, want mean 120 GB/s", v)
	}
	// Rep extras made it to the entry and the CI brackets the mean.
	s, ok := rep.Entry.RepStats("rate")
	if !ok {
		t.Fatal("entry has no rep stats")
	}
	if s.N != 3 || math.Abs(s.Mean-120) > 1e-9 {
		t.Fatalf("rep stats = %+v", s)
	}
	if s.CILo > s.Mean || s.CIHi < s.Mean || s.Stddev <= 0 {
		t.Fatalf("degenerate stats: %+v", s)
	}
	if rep.Entry.Extra["repetitions"] != "3" || rep.Entry.Extra["warmup_discarded"] != "1" {
		t.Fatalf("protocol extras: %v", rep.Entry.Extra)
	}
	// Exactly one perflog line, and it round-trips the stats.
	entries := wholeTree(t, filepath.Join(r.PerflogRoot, "archer2", "vary.log"))
	if len(entries) != 1 {
		t.Fatalf("perflog lines = %d, want 1", len(entries))
	}
	rt, ok := entries[0].RepStats("rate")
	if !ok || rt != s {
		t.Fatalf("perflog stats = %+v ok=%v, want %+v", rt, ok, s)
	}
}

func TestSingleRunHasNoRepExtras(t *testing.T) {
	r := testRunner(t)
	rep, err := r.Run(&echoBenchmark{name: "echo"}, Options{System: "archer2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Entry.Extra["repetitions"]; ok {
		t.Fatal("single run carries a repetitions extra")
	}
	if _, ok := rep.Entry.RepStats("rate"); ok {
		t.Fatal("single run carries rep stats")
	}
	if rep.Repetitions != 1 || rep.Warmup != 0 {
		t.Fatalf("report protocol = %d/%d, want 1/0", rep.Repetitions, rep.Warmup)
	}
}

func TestRunnerDefaultRepetitions(t *testing.T) {
	r := testRunner(t)
	r.Repetitions = 3
	b := &varyBenchmark{}
	rep, err := r.Run(b, Options{System: "archer2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.contexts) != 3 {
		t.Fatalf("executions = %d, want runner default 3", len(b.contexts))
	}
	if s, ok := rep.Entry.RepStats("rate"); !ok || s.N != 3 {
		t.Fatalf("rep stats = %+v ok=%v", s, ok)
	}
}

func TestRepetitionDeterministicStats(t *testing.T) {
	// Two identical repetition runs must produce identical stats — the
	// bootstrap is seeded from (system, benchmark, spec).
	run := func() perflog.RepStats {
		r := testRunner(t)
		rep, err := r.Run(&varyBenchmark{}, Options{System: "archer2", Repetitions: 3})
		if err != nil {
			t.Fatal(err)
		}
		s, ok := rep.Entry.RepStats("rate")
		if !ok {
			t.Fatal("no rep stats")
		}
		return s
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("stats not deterministic: %+v vs %+v", a, b)
	}
}

func TestRepetitionFailureFailsWholeRun(t *testing.T) {
	// Repetition 2 (index 1) fails sanity: the whole run must fail with
	// no FOMs and no rep extras — a partial repetition set is never
	// reported.
	r := testRunner(t)
	b := &varyBenchmark{value: func(rep int) float64 {
		if rep == 1 {
			return math.NaN() // "rate: NaN" fails the perf pattern
		}
		return 100
	}}
	rep, err := r.Run(b, Options{System: "archer2", Repetitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass() {
		t.Fatal("run passed despite a failed repetition")
	}
	if len(rep.FOMs) != 0 {
		t.Fatalf("failed run reported FOMs: %v", rep.FOMs)
	}
	if _, ok := rep.Entry.RepStats("rate"); ok {
		t.Fatal("failed run carries rep stats")
	}
	// Later repetitions do not execute after a failure.
	if len(b.contexts) != 2 {
		t.Fatalf("executions = %d, want 2 (stop after failing rep)", len(b.contexts))
	}
	entries := wholeTree(t, filepath.Join(r.PerflogRoot, "archer2", "vary.log"))
	if len(entries) != 1 || entries[0].Pass() {
		t.Fatalf("perflog: %d entries, pass=%v", len(entries), len(entries) > 0 && entries[0].Pass())
	}
}

func TestRepetitionFaultRetriesToCompleteSet(t *testing.T) {
	// A transient fault in the repetition point: the stage retry re-runs
	// only the faulted repetition and the final set is complete — n
	// counts each repetition exactly once.
	loadFaults(t, 1, "core.repetition:error:times=2")
	r := testRunner(t)
	r.Retry = fastRetry()
	b := &varyBenchmark{}
	rep, err := r.Run(b, Options{System: "archer2", Repetitions: 3})
	if err != nil {
		t.Fatalf("run with transient repetition faults: %v", err)
	}
	if !rep.Pass() {
		t.Fatal("run did not pass after retries")
	}
	s, ok := rep.Entry.RepStats("rate")
	if !ok || s.N != 3 {
		t.Fatalf("rep stats after retries = %+v ok=%v, want n=3", s, ok)
	}
	if len(rep.RepSeries["rate"]) != 3 {
		t.Fatalf("series = %v, want 3 values", rep.RepSeries["rate"])
	}
}

func TestRepetitionFaultExhaustionFailsRun(t *testing.T) {
	// Every repetition submission faulted: retries exhaust, the run
	// errors, and nothing is appended — never a partial set.
	loadFaults(t, 1, "core.repetition:error")
	r := testRunner(t)
	r.Retry = fastRetry()
	_, err := r.Run(&varyBenchmark{}, Options{System: "archer2", Repetitions: 3})
	if err == nil {
		t.Fatal("run succeeded with every repetition faulted")
	}
	if !faultinject.Is(err) {
		t.Errorf("error lost its fault type: %v", err)
	}
	if _, rerr := perflog.ReadTree(filepath.Join(r.PerflogRoot, "archer2", "vary.log")); rerr == nil {
		t.Fatal("perflog written for a run that never completed")
	}
}

func TestRepetitionProtocolValidation(t *testing.T) {
	r := testRunner(t)
	if _, err := r.Run(&echoBenchmark{name: "echo"}, Options{System: "archer2", Repetitions: 600, Warmup: 600}); err == nil {
		t.Fatal("oversized protocol accepted")
	}
}

func TestRepJitterPerturbsSystemFactor(t *testing.T) {
	r := testRunner(t)
	b := &varyBenchmark{}
	if _, err := r.Run(b, Options{System: "archer2", Repetitions: 3}); err != nil {
		t.Fatal(err)
	}
	if b.contexts[0].SystemFactor != 1.0 {
		t.Fatalf("repetition 0 factor = %v, want exactly 1 (pre-repetition identity)", b.contexts[0].SystemFactor)
	}
	for i, ctx := range b.contexts[1:] {
		f := ctx.SystemFactor
		if f == 1.0 || f < 0.99 || f > 1.01 {
			t.Fatalf("repetition %d factor = %v, want perturbed within ±1%%", i+1, f)
		}
	}
	if b.contexts[1].SystemFactor == b.contexts[2].SystemFactor {
		t.Fatal("distinct repetitions saw identical jitter")
	}
}

// Adjacent repetitions must draw genuinely independent factors. Raw
// FNV-1a fails this: its multiplier is ~2^40, so hashing strings that
// differ only in the rep digit moved the top bits by ~1e-9 — every
// repetition measured the same value and the "noise" was fictional.
func TestRepJitterSpread(t *testing.T) {
	for _, sys := range []string{"archer2", "csd3", "cosma8"} {
		for rep := 1; rep < 5; rep++ {
			a := repJitter(sys, "babelstream-omp", rep)
			b := repJitter(sys, "babelstream-omp", rep+1)
			if diff := math.Abs(a - b); diff < 1e-4 {
				t.Errorf("%s reps %d/%d: factors %v and %v differ by %g, want well-mixed",
					sys, rep, rep+1, a, b, diff)
			}
		}
	}
}

func TestPreflightDetectsStaleBinary(t *testing.T) {
	r := testRunner(t)
	b := &echoBenchmark{name: "echo"}
	rep, err := r.Run(b, Options{System: "archer2"})
	if err != nil {
		t.Fatal(err)
	}
	// Clean tree: preflight passes.
	if err := r.Preflight(b, Options{System: "archer2"}); err != nil {
		t.Fatalf("preflight on a clean tree: %v", err)
	}
	// Tamper with the root prefix's manifest hash.
	prefix := rep.Builds[len(rep.Builds)-1].Prefix
	m, err := buildsys.ReadManifest(prefix)
	if err != nil {
		t.Fatal(err)
	}
	m.Hash = "feedfacefeedface"
	if err := buildsys.WriteManifest(prefix, m); err != nil {
		t.Fatal(err)
	}
	err = r.Preflight(b, Options{System: "archer2"})
	var stale *buildsys.StaleBinaryError
	if !errors.As(err, &stale) {
		t.Fatalf("preflight on a tampered tree: got %v, want *StaleBinaryError", err)
	}
	if stale.Prefix != prefix {
		t.Fatalf("stale prefix = %s, want %s", stale.Prefix, prefix)
	}
}

func TestPreflightRejectsBadInputs(t *testing.T) {
	r := testRunner(t)
	if err := r.Preflight(nil, Options{System: "archer2"}); err == nil {
		t.Fatal("nil benchmark accepted")
	}
	if err := r.Preflight(&echoBenchmark{name: "echo"}, Options{}); err == nil {
		t.Fatal("missing system accepted")
	}
	if err := r.Preflight(&echoBenchmark{name: "echo"}, Options{System: "nonesuch"}); err == nil {
		t.Fatal("unknown system accepted")
	}
}
