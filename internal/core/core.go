// Package core is the framework's heart: the benchmark abstraction and
// the pipeline that runs it reproducibly on any configured system.
//
// It plays ReFrame's role in the paper (§2.3): a Benchmark describes
// *what* to build and run (build spec, execution layout, sanity and
// performance patterns) while the system configuration describes *where*
// (scheduler, launcher, partitions, compilers, externals). The Runner
// executes the regression-test pipeline:
//
//	resolve system → concretize spec (Principle 4) → build (Principles
//	2–3) → generate job script → schedule → launch → sanity-check →
//	extract FOMs (Principle 6) → append perflog
//
// so that every run is reproducible end to end by construction.
package core

import (
	"time"

	"repro/internal/buildsys"
	"repro/internal/env"
	"repro/internal/fom"
	"repro/internal/launcher"
	"repro/internal/perflog"
	"repro/internal/platform"
	"repro/internal/repo"
	"repro/internal/retry"
	"repro/internal/scheduler"
	"repro/internal/spec"
)

// RunContext is everything a benchmark's payload can see when it
// executes: the platform it landed on, its concrete build, and the
// parallel layout the scheduler granted.
type RunContext struct {
	System       *platform.System
	Partition    *platform.Partition
	Spec         *spec.Spec // concrete build spec
	Layout       launcher.Layout
	Nodes        []string
	SystemFactor float64
	// Repetition is the zero-based index of this execution within the
	// run's repetition protocol (0 for single-execution runs and for the
	// first warm-up).
	Repetition int
	// Local is true when running on the real host rather than the
	// simulated estate.
	Local bool
}

// Benchmark defines one test, mirroring a ReFrame benchmark class.
type Benchmark interface {
	// Name identifies the benchmark in perflogs.
	Name() string
	// BuildSpec is the default package spec to build (may be overridden
	// per run, like ReFrame's -S spack_spec=...).
	BuildSpec() string
	// DefaultLayout is the parallel layout used unless overridden
	// (ReFrame's num_tasks / num_tasks_per_node / num_cpus_per_task).
	DefaultLayout() launcher.Layout
	// Args are the executable's command-line arguments (recorded in the
	// job script).
	Args() []string
	// Execute runs the payload and returns its stdout and how long it
	// took (simulated or measured).
	Execute(ctx *RunContext) (stdout string, elapsed time.Duration, err error)
	// Sanity patterns decide whether the run was valid.
	Sanity() fom.Sanity
	// PerfPatterns extract the Figures of Merit from stdout.
	//
	// Implementations may return the same values on every call (the
	// suite's are compiled once and shared by every run), so callers
	// treat what Sanity and PerfPatterns return as read-only.
	PerfPatterns() []fom.Pattern
}

// Options modify one Runner.Run invocation, mirroring the ReFrame
// command line used throughout the paper's artifact appendix.
type Options struct {
	// System targets "system" or "system:partition" (--system).
	System string
	// Spec overrides the benchmark's build spec (-S spack_spec=...).
	Spec string
	// Layout overrides fields of the default layout when nonzero
	// (--setvar num_tasks=... etc.).
	NumTasks     int
	TasksPerNode int
	CPUsPerTask  int
	// Account overrides the system config's account (-J'--account=').
	Account string
	// Repetitions overrides the runner's measured-repetition count when
	// positive (--repetitions).
	Repetitions int
	// Warmup overrides the runner's warm-up discard count when positive
	// (--warmup).
	Warmup int
}

// Report is the full record of one pipeline run.
type Report struct {
	Benchmark string
	System    string
	Partition string
	Spec      *spec.Spec
	SpecTrace []string // concretizer provenance (Principle 4)
	Builds    []*buildsys.Record
	// BuildTime is the simulated build time this run actually spent
	// (cached and external packages cost nothing; see
	// buildsys.TotalBuildTime).
	BuildTime time.Duration
	JobScript string
	Job       *scheduler.Info
	FOMs      map[string]fom.Value
	Entry     *perflog.Entry
	EnvBefore env.Capture
	// Repetitions is the number of measured repetitions that produced the
	// FOMs (1 for single-execution runs); Warmup is how many additional
	// warm-up executions were discarded before measuring.
	Repetitions int
	Warmup      int
	// RepSeries holds the measured per-repetition values for each FOM
	// when Repetitions > 1 (the series the perflog rep extras summarize).
	RepSeries map[string][]float64
}

// Pass reports whether the run completed and passed sanity.
func (r *Report) Pass() bool { return r.Entry != nil && r.Entry.Pass() }

// Runner executes benchmarks through the full pipeline.
type Runner struct {
	Estate *platform.Estate
	Envs   *env.Registry
	Repo   *repo.Repository
	// InstallTree is the build-cache directory.
	InstallTree string
	// PerflogRoot receives perflog entries; empty disables logging.
	PerflogRoot string
	// Log, when non-nil, receives perflog entries instead of one-shot
	// Append calls against PerflogRoot. benchd wires its group-commit
	// *perflog.Writer here so concurrent workers' append stages share
	// commits (one write + one fsync per batch); the CLI leaves it nil
	// and keeps the one-shot path.
	Log perflog.Appender
	// RebuildEveryRun enforces Principle 3 (default in New).
	RebuildEveryRun bool
	// Backfill enables EASY backfilling on the simulated batch
	// schedulers (no effect on the local scheduler).
	Backfill bool
	// Repetitions is the default number of measured repetitions per run
	// (<= 1 means a single execution, the pre-repetition behaviour).
	// Options.Repetitions overrides it per run.
	Repetitions int
	// WarmupDiscard is the default number of warm-up executions run and
	// discarded before the measured repetitions. Options.Warmup overrides
	// it per run.
	WarmupDiscard int
	// Retry is applied to each pipeline stage: transient failures (a
	// scheduler rejecting a submit, a flaky build step) are re-attempted
	// with backoff before the run is declared failed. The zero policy
	// runs every stage exactly once. The append stage is never retried —
	// its bytes may already be durable when the error surfaces, and a
	// duplicated perflog line is worse than a surfaced error.
	Retry retry.Policy
	// StageTimeout bounds each stage attempt. Enforcement is
	// cooperative: the attempt's context expires and context-aware work
	// (builds, injected delays) returns early; the timeout is classified
	// transient so the retry policy gets a fresh attempt. Zero disables
	// the limit.
	StageTimeout time.Duration
	// Now supplies timestamps (defaults to time.Now; fixed in tests).
	Now func() time.Time
}

// New assembles a Runner over the builtin estate, environments, and
// recipes, with Principle 3 (rebuild every run) on by default.
func New(installTree, perflogRoot string) *Runner {
	return &Runner{
		Estate:          platform.UKEstate(),
		Envs:            env.UKRegistry(),
		Repo:            repo.Builtin(),
		InstallTree:     installTree,
		PerflogRoot:     perflogRoot,
		RebuildEveryRun: true,
		Retry:           retry.Default(),
		Now:             time.Now,
	}
}
