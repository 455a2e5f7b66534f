package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/buildsys"
	"repro/internal/concretize"
	"repro/internal/env"
	"repro/internal/faultinject"
	"repro/internal/fom"
	"repro/internal/launcher"
	"repro/internal/machine"
	"repro/internal/perflog"
	"repro/internal/platform"
	"repro/internal/retry"
	"repro/internal/scheduler"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Pipeline metrics, registered in the default registry so every binary
// running the pipeline (benchctl, benchd, examples) exposes them.
var (
	metricStageSeconds = telemetry.DefaultRegistry.Histogram(
		"runner_stage_seconds",
		"Wall-clock duration of each pipeline stage, by stage name.",
		nil, "stage")
	metricRunsTotal = telemetry.DefaultRegistry.Counter(
		"runner_runs_total",
		"Pipeline runs by outcome (pass, fail, error).",
		"result")
)

// Run executes the full pipeline for one benchmark on one system. It is
// RunContext with a background context.
func (r *Runner) Run(b Benchmark, opts Options) (*Report, error) {
	return r.RunContext(context.Background(), b, opts)
}

// RunContext executes the full pipeline for one benchmark on one
// system, tracing every stage: the run produces a span tree (resolve →
// concretize → build → schedule → extract → append) published to the
// context's tracer, per-stage wall-clock durations in the
// runner_stage_seconds histogram, and stage_*_s extras in the perflog
// entry so stage timings are queryable alongside the FOMs.
func (r *Runner) RunContext(ctx context.Context, b Benchmark, opts Options) (report *Report, err error) {
	if b == nil {
		return nil, fmt.Errorf("core: nil benchmark")
	}
	if opts.System == "" {
		return nil, fmt.Errorf("core: no target system (use Options.System, e.g. \"archer2\" or \"isambard-macs:cascadelake\")")
	}
	now := r.Now
	if now == nil {
		now = time.Now
	}
	report = &Report{Benchmark: b.Name(), EnvBefore: env.CaptureEnvironment()}

	ctx, root := telemetry.Start(ctx, "run",
		telemetry.String("benchmark", b.Name()),
		telemetry.String("system", opts.System))
	stageSeconds := map[string]float64{}
	defer func() {
		switch {
		case err != nil:
			metricRunsTotal.With("error").Inc()
		case report.Pass():
			metricRunsTotal.With("pass").Inc()
		default:
			metricRunsTotal.With("fail").Inc()
		}
		root.End(err)
	}()
	// stage wraps one pipeline stage in a child span, applies the
	// runner's retry policy and per-attempt timeout, and records the
	// stage's total wall-clock duration (all attempts) under the given
	// name. Attempt 1 runs directly under the stage span so traces of
	// clean runs are unchanged; each retry gets a child span tagged with
	// its attempt number. canRetry=false pins the stage to one attempt
	// regardless of policy — used for append, which is not idempotent.
	stage := func(name string, canRetry bool, f func(context.Context) error) error {
		sctx, span := telemetry.Start(ctx, name)
		policy := r.Retry
		if !canRetry {
			policy = retry.Policy{}
		}
		serr := policy.Do(sctx, "runner."+name, func(actx context.Context, attempt int) error {
			var aspan *telemetry.Span
			if attempt > 1 {
				actx, aspan = telemetry.Start(actx, name+".retry",
					telemetry.Int("attempt", attempt))
			}
			if r.StageTimeout > 0 {
				var cancel context.CancelFunc
				actx, cancel = context.WithTimeout(actx, r.StageTimeout)
				defer cancel()
			}
			aerr := f(actx)
			// A deadline we imposed (not one inherited from the caller)
			// is a transient condition: the next attempt gets a fresh
			// budget.
			if aerr != nil && errors.Is(aerr, context.DeadlineExceeded) && sctx.Err() == nil {
				aerr = retry.Mark(fmt.Errorf("core: stage %s timed out after %s: %w",
					name, r.StageTimeout, aerr))
			}
			if aspan != nil {
				aspan.End(aerr)
			}
			return aerr
		})
		span.End(serr)
		d := span.Duration().Seconds()
		// Accumulate, not overwrite: the schedule and extract stages run
		// once per repetition and their extras report the run's total.
		stageSeconds[name] += d
		metricStageSeconds.With(name).Observe(d)
		return serr
	}

	// Effective repetition protocol: per-run options override the
	// runner's defaults; the zero protocol is one execution, exactly the
	// pre-repetition pipeline.
	reps := opts.Repetitions
	if reps <= 0 {
		reps = r.Repetitions
	}
	if reps <= 0 {
		reps = 1
	}
	warmup := opts.Warmup
	if warmup <= 0 {
		warmup = r.WarmupDiscard
	}
	if warmup < 0 {
		warmup = 0
	}
	if err := stats.ValidateProtocol(reps, warmup); err != nil {
		return nil, err
	}
	total := warmup + reps
	report.Repetitions = reps
	report.Warmup = warmup

	// 1. Resolve the platform.
	var sys *platform.System
	var part *platform.Partition
	if err := stage("resolve", true, func(context.Context) error {
		var rerr error
		sys, part, rerr = r.Estate.Resolve(opts.System)
		return rerr
	}); err != nil {
		return nil, err
	}
	report.System = sys.Name
	report.Partition = part.Name

	// 2. Concretize the build spec against the system environment
	// (Principle 4: the build is fully determined by spec + system
	// config, both of which are recorded).
	cfg := r.Envs.ForSystem(sys.Name)
	var conc *concretize.Result
	if err := stage("concretize", true, func(context.Context) error {
		var cerr error
		conc, cerr = r.concretizeOn(b, opts, sys, part)
		return cerr
	}); err != nil {
		return nil, err
	}
	report.Spec = conc.Spec
	report.SpecTrace = conc.Steps

	// 3. Build (Principles 2-3). The builder returns one provenance
	// record per DAG node, root last; the root's prefix holds the
	// binary the job launches.
	// Retries happen per DAG node inside the builder (where a failed
	// attempt cannot poison the cache), not at stage level where they
	// would multiply with the node-level policy.
	var records []*buildsys.Record
	if err := stage("build", false, func(sctx context.Context) error {
		builder := buildsys.NewBuilder(r.InstallTree, r.Repo)
		builder.RebuildEveryRun = r.RebuildEveryRun
		builder.Retry = r.Retry
		var berr error
		records, berr = builder.InstallContext(sctx, conc.Spec)
		return berr
	}); err != nil {
		return nil, err
	}
	report.Builds = records
	report.BuildTime = buildsys.TotalBuildTime(records)
	rootBuild := records[len(records)-1]
	exePath := filepath.Join(rootBuild.Prefix, "bin", conc.Spec.Name)

	// 4. Assemble the job.
	layout := b.DefaultLayout()
	if opts.NumTasks > 0 {
		layout.NumTasks = opts.NumTasks
	}
	if opts.TasksPerNode > 0 {
		layout.TasksPerNode = opts.TasksPerNode
	}
	if opts.CPUsPerTask > 0 {
		layout.CPUsPerTask = opts.CPUsPerTask
	}
	if layout.CPUsPerTask <= 0 {
		layout.CPUsPerTask = 1
	}
	if layout.NumTasks <= 0 {
		// ReFrame-style: benchmarks may ask for "the whole node" without
		// hardcoding a core count, which would make them unportable
		// (paper §2.3). Resolve against the partition's processor.
		layout.NumTasks = part.Processor.TotalCores() / layout.CPUsPerTask
		if layout.NumTasks < 1 {
			layout.NumTasks = 1
		}
		if layout.TasksPerNode <= 0 {
			layout.TasksPerNode = layout.NumTasks
		}
	}
	launch, err := launcher.For(part.Launcher)
	if err != nil {
		return nil, err
	}
	account := cfg.Account
	if opts.Account != "" {
		account = opts.Account
	}
	job := &scheduler.Job{
		Name:         b.Name(),
		Account:      account,
		QOS:          cfg.QOS,
		NumTasks:     layout.NumTasks,
		TasksPerNode: layout.TasksPerNode,
		CPUsPerTask:  layout.CPUsPerTask,
		Env:          cfg.EnvVars,
		Commands:     []string{launch.Command(layout, exePath, b.Args())},
	}

	// 5. Schedule and execute, once per repetition (warm-ups included).
	// The span's wall time covers submission through completion; the
	// queue/execute split below comes from the scheduler's own job
	// accounting (real seconds on the local scheduler, simulated seconds
	// on the batch simulators). Each repetition is a full
	// schedule+extract cycle; a failure in repetition k is retried at
	// stage level (re-running only repetition k) and, if retries
	// exhaust, fails the whole run before anything is appended — a
	// partial repetition set is never persisted.
	var info *scheduler.Info
	repFOMs := make([]map[string]fom.Value, 0, total)
	var runErrMsg string
	for k := 0; k < total && runErrMsg == ""; k++ {
		rep := k
		if err := stage("schedule", true, func(sctx context.Context) error {
			if total > 1 {
				if ferr := faultinject.FireContext(sctx, "core.repetition"); ferr != nil {
					return fmt.Errorf("core: repetition %d/%d: %w", rep+1, total, ferr)
				}
			}
			sched, serr := r.schedulerFor(sys, part, b, conc.Spec, layout, rep)
			if serr != nil {
				return serr
			}
			report.JobScript = sched.Script(job)
			id, serr := sched.Submit(job)
			if serr != nil {
				return serr
			}
			info, serr = sched.Wait(id)
			if serr != nil {
				return serr
			}
			if span := telemetry.FromContext(sctx); span != nil {
				span.SetAttr("job_id", fmt.Sprint(info.ID))
				span.SetAttr("state", info.State.String())
				if total > 1 {
					span.SetAttr("repetition", fmt.Sprintf("%d/%d", rep+1, total))
				}
			}
			slog.Default().DebugContext(sctx, "job finished",
				"job_id", info.ID, "state", info.State.String(),
				"queue_s", info.QueueWait(), "runtime_s", info.Runtime())
			return nil
		}); err != nil {
			return nil, err
		}
		report.Job = info
		if q := info.QueueWait(); q >= 0 {
			stageSeconds["queue"] += q
			metricStageSeconds.With("queue").Observe(q)
		}
		if rt := info.Runtime(); rt >= 0 {
			stageSeconds["execute"] += rt
			metricStageSeconds.With("execute").Observe(rt)
		}

		// 6. Sanity and FOM extraction (Principle 6) for this repetition.
		// Any repetition failing sanity fails the run: a mean over a set
		// that silently dropped members would misreport n.
		if err := stage("extract", true, func(context.Context) error {
			if info.State != scheduler.Completed {
				runErrMsg = fmt.Sprintf("job state %s: %s", info.State, info.Stderr)
				return nil
			}
			if serr := b.Sanity().Check(info.Stdout); serr != nil {
				runErrMsg = serr.Error()
				return nil
			}
			foms, ferr := fom.Extract(info.Stdout, b.PerfPatterns())
			if ferr != nil {
				runErrMsg = ferr.Error()
				return nil
			}
			repFOMs = append(repFOMs, foms)
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// 7. Assemble the perflog entry from the repetition results. Job
	// accounting fields come from the final repetition's job, matching
	// the single-execution entry shape exactly.
	entry := &perflog.Entry{
		Time:      now(),
		Benchmark: b.Name(),
		System:    sys.Name,
		Partition: part.Name,
		Environ:   conc.Spec.Compiler.Name,
		Spec:      conc.Spec.RootString(),
		JobID:     info.ID,
		Result:    "fail",
		FOMs:      map[string]fom.Value{},
		Extra: map[string]string{
			"num_tasks":          fmt.Sprint(layout.NumTasks),
			"num_tasks_per_node": fmt.Sprint(layout.TasksPerNode),
			"num_cpus_per_task":  fmt.Sprint(layout.CPUsPerTask),
			"job_runtime_s":      fmt.Sprintf("%.6f", info.Runtime()),
			// Build provenance (Principle 4): the hash keys the install
			// prefix whose manifest records the full command script.
			"build_hash":        rootBuild.Hash,
			"build_state":       rootBuild.State(),
			"builds":            buildsys.Summary(records),
			"simulated_build_s": fmt.Sprintf("%.3f", report.BuildTime.Seconds()),
			// System-state capture the paper lists as planned work:
			// an energy estimate for the allocation over the run.
			"est_energy_j": fmt.Sprintf("%.1f",
				part.Processor.EnergyEstimateJ(info.Runtime())*float64(len(info.Nodes))),
		},
	}
	report.Entry = entry
	if total > 1 {
		entry.Extra["repetitions"] = fmt.Sprint(reps)
		entry.Extra["warmup_discarded"] = fmt.Sprint(warmup)
	}
	switch {
	case runErrMsg != "":
		entry.Extra["error"] = runErrMsg
	default:
		measured := repFOMs[warmup:]
		foms, series, aerr := aggregateRepetitions(measured, r.statSeed(sys.Name, b.Name(), conc.Spec))
		if aerr != nil {
			entry.Extra["error"] = aerr.Error()
			break
		}
		entry.FOMs = foms
		entry.Result = "pass"
		if len(measured) > 1 {
			report.RepSeries = series
			for name, vals := range series {
				s := stats.Summarize(vals, 0, 0, r.statSeed(sys.Name, b.Name(), conc.Spec))
				entry.SetRepStats(name, perflog.RepStats{
					N: s.N, Mean: s.Mean, Stddev: s.Stddev, RSD: s.RSD,
					CILo: s.CILo, CIHi: s.CIHi,
				})
			}
		}
	}
	report.FOMs = entry.FOMs

	// Stage timings become FOM-adjacent queryable data (the harness is
	// part of what determines a result). The append stage's own
	// duration cannot land in the entry it writes; it is span-only.
	for name, d := range stageSeconds {
		entry.Extra["stage_"+name+"_s"] = fmt.Sprintf("%.6f", d)
	}

	if r.Log != nil || r.PerflogRoot != "" {
		if err := stage("append", false, func(context.Context) error {
			if r.Log != nil {
				return r.Log.Append(sys.Name, b.Name(), entry)
			}
			return perflog.Append(r.PerflogRoot, sys.Name, b.Name(), entry)
		}); err != nil {
			return report, err
		}
	}
	return report, nil
}

// aggregateRepetitions reduces the measured repetitions' FOM maps to one
// FOM map (the mean when several repetitions measured) plus the per-FOM
// value series. Every measured repetition must report the same FOM set —
// a FOM appearing in some repetitions but not others means the runs were
// not comparable, which fails the run rather than misreporting n.
func aggregateRepetitions(measured []map[string]fom.Value, seed uint64) (map[string]fom.Value, map[string][]float64, error) {
	if len(measured) == 0 {
		return nil, nil, fmt.Errorf("core: no measured repetitions")
	}
	if len(measured) == 1 {
		return measured[0], nil, nil
	}
	first := measured[0]
	names := make([]string, 0, len(first))
	for name := range first {
		names = append(names, name)
	}
	sort.Strings(names)
	foms := make(map[string]fom.Value, len(first))
	series := make(map[string][]float64, len(first))
	for _, name := range names {
		vals := make([]float64, 0, len(measured))
		for i, m := range measured {
			v, present := m[name]
			if !present {
				return nil, nil, fmt.Errorf("core: fom %s missing from repetition %d", name, i+1)
			}
			vals = append(vals, v.Value)
		}
		s := stats.Summarize(vals, 0, 0, seed)
		foms[name] = fom.Value{Name: first[name].Name, Value: s.Mean, Unit: first[name].Unit}
		series[name] = vals
	}
	for i, m := range measured {
		if len(m) != len(first) {
			return nil, nil, fmt.Errorf("core: repetition %d reported %d foms, first reported %d", i+1, len(m), len(first))
		}
	}
	return foms, series, nil
}

// statSeed derives the deterministic bootstrap seed for a run: the same
// benchmark, system, and concrete spec always get the same intervals,
// keeping perflog lines reproducible artifacts.
func (r *Runner) statSeed(system, benchmark string, concrete *spec.Spec) uint64 {
	h := fnv.New64a()
	h.Write([]byte(system))
	h.Write([]byte{'|'})
	h.Write([]byte(benchmark))
	h.Write([]byte{'|'})
	if concrete != nil {
		h.Write([]byte(concrete.RootString()))
	}
	return h.Sum64()
}

// repJitter derives the deterministic per-repetition perturbation on the
// system factor, standing in for the run-to-run noise a real machine
// shows between identical submissions (same spirit as machine's
// per-result jitter). Repetition 0 is unperturbed so single-execution
// runs — and the first repetition — reproduce pre-repetition outputs
// bit-for-bit.
func repJitter(system, benchmark string, rep int) float64 {
	if rep == 0 {
		return 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|rep%d", system, benchmark, rep)
	// FNV's multiplier is only ~2^40, so inputs differing in the final
	// byte (adjacent rep numbers) barely move the top bits; finalize
	// with a splitmix64-style mix so consecutive reps get independent
	// factors instead of near-identical ones.
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53)
	return 0.99 + 0.02*u // ±1%
}

// schedulerFor builds the scheduler for a partition, wiring the
// benchmark's Execute as the job payload for one repetition.
func (r *Runner) schedulerFor(sys *platform.System, part *platform.Partition, b Benchmark, concrete *spec.Spec, layout launcher.Layout, rep int) (scheduler.Scheduler, error) {
	exec := func(job *scheduler.Job, nodes []string) scheduler.Result {
		// The per-system software factor captures MPI-stack and
		// toolchain quirks that bite multi-node runs (paper §3.3);
		// single-node jobs see the architecture's own efficiency.
		factor := 1.0
		if len(nodes) > 1 {
			factor = machine.SystemFactor(sys.Name)
		}
		factor *= repJitter(sys.Name, b.Name(), rep)
		ctx := &RunContext{
			System:       sys,
			Partition:    part,
			Spec:         concrete,
			Layout:       layout,
			Nodes:        nodes,
			SystemFactor: factor,
			Repetition:   rep,
			Local:        part.Scheduler == "local",
		}
		stdout, elapsed, err := b.Execute(ctx)
		if err != nil {
			return scheduler.Result{Stderr: err.Error(), ExitCode: 1, Duration: elapsed}
		}
		return scheduler.Result{Stdout: stdout, Duration: elapsed}
	}
	switch part.Scheduler {
	case "local":
		return scheduler.NewLocal(exec)
	case "slurm", "pbs":
		sim, err := scheduler.NewSim(part.Scheduler, part.Nodes, part.Processor.TotalCores(), exec)
		if err != nil {
			return nil, err
		}
		sim.Backfill = r.Backfill
		return sim, nil
	default:
		return nil, fmt.Errorf("core: partition %s uses unknown scheduler %q", part.Name, part.Scheduler)
	}
}

// Preflight validates a run request without executing it: the system
// must resolve, the spec must concretize, and every already-installed
// prefix the build cache would consult must match the concretized spec
// (buildsys.Validate). A *buildsys.StaleBinaryError means a binary on
// disk can no longer be tied to the spec that would claim it — the
// stale-binary postmortem the validation protocol exists to prevent.
func (r *Runner) Preflight(b Benchmark, opts Options) error {
	if b == nil {
		return fmt.Errorf("core: nil benchmark")
	}
	if opts.System == "" {
		return fmt.Errorf("core: no target system")
	}
	conc, err := r.Concretize(b, opts)
	if err != nil {
		return err
	}
	if r.InstallTree == "" {
		return nil
	}
	return buildsys.Validate(r.InstallTree, conc.Spec)
}

// Concretize resolves opts.System and concretizes the run's build spec
// (b's, or opts.Spec) against that system's environment, building
// nothing: the DAG a run of b with opts would install right now.
func (r *Runner) Concretize(b Benchmark, opts Options) (*concretize.Result, error) {
	sys, part, err := r.Estate.Resolve(opts.System)
	if err != nil {
		return nil, err
	}
	return r.concretizeOn(b, opts, sys, part)
}

// concretizeOn is Concretize on an already resolved system; a run
// traces the two halves as its resolve and concretize stages.
func (r *Runner) concretizeOn(b Benchmark, opts Options, sys *platform.System, part *platform.Partition) (*concretize.Result, error) {
	specText := b.BuildSpec()
	if opts.Spec != "" {
		specText = opts.Spec
	}
	abstract, err := spec.Parse(specText)
	if err != nil {
		return nil, err
	}
	cfg := r.Envs.ForSystem(sys.Name)
	return concretize.Concretize(abstract, cfg.ConcretizeOptions(r.Repo, string(part.Processor.Arch)))
}

// RunMany runs the benchmark across several systems, returning one
// report per target that completed the pipeline — the cross-system
// survey loop the framework makes cheap (the paper's §3.3 "single
// workflow" point).
//
// A failing target does not abort the survey: the remaining systems
// still run (and still append their perflog entries), and the per-target
// errors are collected into one aggregate error (errors.Join), each
// wrapped with its benchmark and system. Reports are returned for the
// successful targets, in target order; callers that need all targets to
// succeed must check the returned error, not the report count alone.
func (r *Runner) RunMany(b Benchmark, targets []string, base Options) ([]*Report, error) {
	return r.RunManyContext(context.Background(), b, targets, base)
}

// RunManyContext is RunMany under a caller-supplied context (tracer,
// cancellation).
func (r *Runner) RunManyContext(ctx context.Context, b Benchmark, targets []string, base Options) ([]*Report, error) {
	var out []*Report
	var errs []error
	for _, target := range targets {
		opts := base
		opts.System = target
		rep, err := r.RunContext(ctx, b, opts)
		if err != nil {
			name := "benchmark"
			if b != nil {
				name = b.Name()
			}
			errs = append(errs, fmt.Errorf("core: %s on %s: %w", name, target, err))
			continue
		}
		out = append(out, rep)
	}
	return out, errors.Join(errs...)
}
