// Package service is the benchd HTTP daemon: benchmark runs are
// enqueued over HTTP, executed through the same suite/core.Runner
// pipeline the CLI uses on a bounded worker pool, and their perflog
// entries ingested into a shared perfstore that the query and
// regression endpoints serve. It is the "results live behind a
// queryable service" piece of continuous benchmarking (ROADMAP
// north-star; paper §4 future work).
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildsys"
	"repro/internal/cbsched"
	"repro/internal/core"
	"repro/internal/eventbus"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/perflog"
	"repro/internal/perfstore"
	"repro/internal/retry"
	"repro/internal/stats"
	"repro/internal/suite"
	"repro/internal/telemetry"
)

// Daemon metrics. HTTP-layer families live in handlers.go; these cover
// the run queue and worker pool.
var (
	metricRunsTotal = telemetry.DefaultRegistry.Counter(
		"benchd_runs_total",
		"Submitted runs by terminal status (completed, failed).",
		"status")
	metricQueueDepth = telemetry.DefaultRegistry.Gauge(
		"benchd_queue_depth",
		"Runs currently waiting in the submission queue.").With()
	metricRunsInFlight = telemetry.DefaultRegistry.Gauge(
		"benchd_runs_in_flight",
		"Runs currently executing on the worker pool.").With()
	metricIngestBatch = telemetry.DefaultRegistry.Histogram(
		"benchd_ingest_batch_size",
		"Entries entering the store per durable group commit.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128}).With()
	metricIngestErrors = telemetry.DefaultRegistry.Counter(
		"benchd_ingest_errors_total",
		"Store ingest failures: a commit's out-of-band gap (commit), the maintenance pickup (sync).",
		"path")
	// Set once per New: manifest_open (segment manifest and headers),
	// tail_sync (perflog bytes past the sealed watermarks), registries_load
	// (runner, schedules, observer, alerts) and total. What a first query
	// then adds is the lazy segment loads, perfstore_segment_loads_total.
	metricBootSeconds = telemetry.DefaultRegistry.Gauge(
		"benchd_boot_seconds",
		"Wall-clock duration of the last daemon boot, by phase.",
		"phase")
)

// Config sizes the daemon.
type Config struct {
	// PerflogRoot is the perflog tree served and appended to.
	PerflogRoot string
	// DataDir, when set, enables the tiered store: sealed segments and
	// the manifest live here, and boot recovers from them in O(segment
	// headers) instead of re-parsing the perflog tree. Empty keeps the
	// memory-only store.
	DataDir string
	// SealThreshold is the head size (live entries) at which the
	// maintenance loop seals the head into a segment (default 4096).
	SealThreshold int
	// CompactSegments is the segment count at which the maintenance
	// loop merges the sealed tier into one segment (default 8).
	CompactSegments int
	// MaintenanceInterval paces the maintenance loop: out-of-band perflog
	// lines are queryable within one interval (default 30s).
	MaintenanceInterval time.Duration
	// InstallTree is the build cache for executed runs.
	InstallTree string
	// Workers bounds concurrent benchmark executions (default 2).
	Workers int
	// QueueDepth bounds pending runs; a full queue rejects submissions
	// with 503 instead of growing without bound (default 64).
	QueueDepth int
	// RequestTimeout bounds each HTTP request (default 30s).
	RequestTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (opt-in:
	// profiling endpoints expose internals and cost CPU when scraped).
	EnablePprof bool
	// Retry overrides the runner's per-stage retry policy (nil keeps
	// core.New's default). A pointer because a zero Policy is meaningful:
	// it disables retries.
	Retry *retry.Policy
	// StageTimeout bounds each pipeline stage attempt in executed runs
	// (0 keeps the runner's default of no limit).
	StageTimeout time.Duration
	// CommitInterval is the perflog group-commit accumulation window: a
	// commit batch is held open this long after its first entry before
	// its single write+fsync, letting concurrent workers share the
	// fsync at the cost of that much acknowledgement latency. 0 commits
	// as soon as the committer is idle (batching still emerges under
	// load from fsync backpressure).
	CommitInterval time.Duration
	// CommitBytes flushes a perflog commit batch early once its
	// rendered bytes reach this size (default 1 MiB).
	CommitBytes int
	// TickInterval paces the recurring-suite scheduler's tick loop
	// (default 1s).
	TickInterval time.Duration
	// EventBuffer bounds each /v1/watch subscriber's event ring; a
	// consumer further behind than this loses its oldest events
	// (default 256).
	EventBuffer int
	// ReplayBuffer bounds the bus's Last-Event-ID replay ring (default
	// 1024).
	ReplayBuffer int
	// HeartbeatInterval paces /v1/watch keepalive comments (default
	// 15s).
	HeartbeatInterval time.Duration
	// RegressionTolerance is the fractional drop that flags a
	// regression after a scheduled run (default 0.10).
	RegressionTolerance float64
	// RegressionWindow bounds the sliding baseline for post-run
	// regression detection (default 5; <0 disables detection).
	RegressionWindow int
	// RSDGate is the run-to-run relative-standard-deviation threshold
	// above which a FOM's repetition set is reported unstable instead of
	// contributing to aggregates and regression verdicts (default
	// perfstore.DefaultRSDGate, 10%; negative disables the gate).
	RSDGate float64
	// SampleInterval paces the self-observability sampler that records
	// metric history and evaluates alert rules (default 10s).
	SampleInterval time.Duration
	// HistoryFlushEvery persists the metric-history file every N samples
	// (default 30; <0 disables periodic flushes — the final flush on
	// shutdown still runs).
	HistoryFlushEvery int
	// ProfileLimit bounds retained alert-triggered pprof artifacts
	// (default 16).
	ProfileLimit int
	// ProfileCooldown rate-limits alert-triggered profile captures
	// (default 1m).
	ProfileCooldown time.Duration
	// Logger receives structured run-lifecycle logs (default
	// slog.Default).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.SealThreshold <= 0 {
		c.SealThreshold = 4096
	}
	if c.CompactSegments <= 0 {
		c.CompactSegments = 8
	}
	if c.MaintenanceInterval <= 0 {
		c.MaintenanceInterval = 30 * time.Second
	}
	if c.TickInterval <= 0 {
		c.TickInterval = time.Second
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.ReplayBuffer <= 0 {
		c.ReplayBuffer = 1024
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 15 * time.Second
	}
	if c.RegressionTolerance <= 0 {
		c.RegressionTolerance = 0.10
	}
	if c.RegressionWindow == 0 {
		c.RegressionWindow = 5
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Run states.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusCompleted = "completed"
	StatusFailed    = "failed"
)

// Run is one submitted benchmark execution.
type Run struct {
	ID        string
	Benchmark string
	System    string
	Spec      string
	// ScheduleID names the recurring schedule that fired this run;
	// empty for client-submitted runs. Completion of a scheduled run
	// flows back into the scheduler's overlap/backoff state and
	// triggers regression detection.
	ScheduleID string

	NumTasks     int
	TasksPerNode int
	CPUsPerTask  int
	// Repetitions/Warmup select the run's repetition protocol (0 = the
	// runner's defaults, i.e. a single execution).
	Repetitions int
	Warmup      int

	mu        sync.Mutex
	status    string
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	entry     *perflog.Entry
}

func (r *Run) set(f func(*Run)) {
	r.mu.Lock()
	f(r)
	r.mu.Unlock()
}

// Server is the benchd daemon: a perfstore plus a worker pool over the
// core.Runner pipeline.
type Server struct {
	cfg    Config
	store  *perfstore.Store
	runner *core.Runner
	// writer is the group-commit perflog writer every run appends
	// through; each durable commit feeds the store (commitIngest).
	writer *perflog.Writer
	tracer *telemetry.Tracer
	cache  *queryCache
	bus    *eventbus.Bus
	sched  *cbsched.Scheduler
	obs    *obs.Observer

	// persistMu serializes registry saves (schedules and alert rules):
	// each replaces one file, and concurrent savers must not interleave
	// tmp writes.
	persistMu sync.Mutex

	queue chan *Run

	// degraded marks a tiered boot whose manifest could not be read
	// even with retries: the store was rebuilt from the perflog text
	// tree (the source of truth) and serves queries, but submissions
	// are refused so the daemon never writes state it could not fully
	// recover.
	degraded bool

	// badLogged is how many quarantined perflog lines have been logged.
	badLogged atomic.Int64

	mu      sync.Mutex
	runs    map[string]*Run
	order   []string // submission order, for listing
	nextID  int
	closed  bool
	started time.Time

	wg   sync.WaitGroup // workers: the drain waits for them
	http *http.Server   // set by Start under mu

	// loops stop the maintenance and tick loops (shutdown step 1);
	// stopSampler stops the sampler loop (step 3).
	loops        []func()
	stopSampler  func()
	shutdownOnce sync.Once
	shutdownErr  error
}

// New assembles a server and ingests whatever the perflog tree already
// holds, so the daemon starts warm. With Config.DataDir set the store
// boots tiered: the segment manifest is recovered (with retries around
// transient read faults) and only the perflog tail past the sealed
// watermarks is parsed. If the manifest stays unreadable the daemon
// still comes up — degraded and read-only — by rebuilding everything
// from the perflog tree, which remains the source of truth.
func New(cfg Config) (*Server, error) {
	bootStart := time.Now()
	cfg = cfg.withDefaults()
	var store *perfstore.Store
	degraded := false
	if cfg.DataDir != "" {
		policy := retry.Default()
		if cfg.Retry != nil {
			policy = *cfg.Retry
		}
		err := policy.Do(context.Background(), "benchd.manifest", func(context.Context, int) error {
			var oerr error
			store, oerr = perfstore.OpenTiered(cfg.PerflogRoot, cfg.DataDir)
			return oerr
		})
		if err != nil {
			cfg.Logger.Error("tiered store unavailable, rebuilding from perflog tree (degraded read-only)",
				"error", err.Error(), "data_dir", cfg.DataDir)
			store = perfstore.Open(cfg.PerflogRoot)
			degraded = true
		}
	} else {
		store = perfstore.Open(cfg.PerflogRoot)
	}
	store.RSDGate = cfg.RSDGate
	manifestDone := time.Now()
	if err := store.Sync(); err != nil {
		return nil, fmt.Errorf("service: initial ingest: %w", err)
	}
	syncDone := time.Now()
	runner := core.New(cfg.InstallTree, "")
	if cfg.Retry != nil {
		runner.Retry = *cfg.Retry
	}
	if cfg.StageTimeout > 0 {
		runner.StageTimeout = cfg.StageTimeout
	}
	s := &Server{
		cfg:      cfg,
		store:    store,
		runner:   runner,
		tracer:   telemetry.NewTracer(256), // finished traces /v1/traces serves
		cache:    newQueryCache(256),       // aggregate and regression results
		bus:      eventbus.New(cfg.ReplayBuffer),
		queue:    make(chan *Run, cfg.QueueDepth),
		runs:     map[string]*Run{},
		started:  time.Now(),
		degraded: degraded,
	}
	sched, err := cbsched.New(cbsched.Config{
		Start:        s.startScheduled,
		Hash:         s.scheduleBuildHash,
		Publish:      s.publish,
		TickInterval: cfg.TickInterval,
		Logger:       cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	s.sched = sched
	if err := s.loadSchedules(); err != nil {
		return nil, err
	}
	// The observer runs even degraded: a read-only daemon's health is
	// exactly what an operator wants history and alerts on.
	observer, err := obs.New(obs.Config{
		Interval:        cfg.SampleInterval,
		FlushEvery:      cfg.HistoryFlushEvery,
		DataDir:         cfg.DataDir,
		ProfileLimit:    cfg.ProfileLimit,
		ProfileCooldown: cfg.ProfileCooldown,
		Publish:         s.publish,
		Logger:          cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	s.obs = observer
	if err := s.loadAlerts(); err != nil {
		return nil, err
	}
	registriesDone := time.Now()
	// Every error return is behind us: start the write path, then the
	// workers, whose appends share commits (one write + one fsync each).
	s.writer = perflog.NewWriter(store.Root(), perflog.WriterOptions{
		MaxDelay: cfg.CommitInterval,
		MaxBytes: cfg.CommitBytes,
		OnCommit: s.commitIngest,
	})
	runner.Log = s.writer
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.logQuarantined()
	s.startLoops()
	phases := []struct {
		name string
		d    time.Duration
	}{
		{"manifest_open", manifestDone.Sub(bootStart)},
		{"tail_sync", syncDone.Sub(manifestDone)},
		{"registries_load", registriesDone.Sub(syncDone)},
		{"total", time.Since(bootStart)},
	}
	attrs := make([]any, 0, 2*len(phases)+2)
	for _, p := range phases {
		metricBootSeconds.With(p.name).Set(p.d.Seconds())
		attrs = append(attrs, p.name+"_s", p.d.Seconds())
	}
	cfg.Logger.Info("boot complete", append(attrs, "degraded", degraded)...)
	return s, nil
}

// Bus exposes the event bus so harnesses (the chaos suite, the CLI
// process embedding a daemon) can subscribe directly.
func (s *Server) Bus() *eventbus.Bus { return s.bus }

// Scheduler exposes the recurring-suite scheduler (tests drive Tick
// directly through it).
func (s *Server) Scheduler() *cbsched.Scheduler { return s.sched }

// publish fans one event out to the bus, retrying transient publish
// faults (a failed Publish delivered nothing, so the retry cannot
// duplicate). After Close — the shutdown race — events are dropped
// silently: subscribers are gone.
func (s *Server) publish(typ string, data map[string]string) {
	err := s.publishPolicy().Do(context.Background(), "service.publish",
		func(context.Context, int) error {
			_, perr := s.bus.Publish(typ, data)
			if errors.Is(perr, eventbus.ErrClosed) {
				return nil
			}
			return perr
		})
	if err != nil {
		s.cfg.Logger.Error("event publish failed", "type", typ, "error", err.Error())
	}
}

// publishPolicy is the runner's retry policy with sleeps capped low:
// event fan-out must never hold a worker for a full backoff ladder.
func (s *Server) publishPolicy() retry.Policy {
	p := s.runner.Retry
	if p.MaxAttempts <= 1 {
		p = retry.Default()
	}
	if p.MaxDelay > 50*time.Millisecond || p.MaxDelay <= 0 {
		p.MaxDelay = 50 * time.Millisecond
	}
	return p
}

// Degraded reports whether the daemon booted read-only because its
// segment manifest was unreadable.
func (s *Server) Degraded() bool { return s.degraded }

// Store exposes the underlying perfstore (the CLI-equivalent query
// path).
func (s *Server) Store() *perfstore.Store { return s.store }

// commitIngest runs on the writer's committer goroutine once per file
// per durable commit, before the commit's appenders wake: the only way
// the daemon's own entries enter the store (see IngestCommit).
func (s *Server) commitIngest(c perflog.Commit) {
	metricIngestBatch.Observe(float64(len(c.Entries)))
	if err := s.store.IngestCommit(c); err != nil {
		metricIngestErrors.With("commit").Inc()
		s.cfg.Logger.Error("commit ingest left to the next sync", "error", err.Error())
	}
}

// SubmitRequest is one run submission: what to run, where, and under
// which repetition protocol.
type SubmitRequest struct {
	Benchmark    string
	System       string
	Spec         string
	NumTasks     int
	TasksPerNode int
	CPUsPerTask  int
	// Repetitions/Warmup select the repetition protocol (0 = the
	// runner's defaults).
	Repetitions int
	Warmup      int
}

// checkTarget is the check a run submission and a schedule registration
// share: benchmark and system named, layout overrides non-negative, the
// benchmark in the suite and the system resolvable. It returns the
// benchmark and the spec, normalized.
func (s *Server) checkTarget(benchmark, system, spec string, numTasks, tasksPerNode, cpusPerTask int) (core.Benchmark, string, error) {
	if benchmark == "" || system == "" {
		return nil, "", fmt.Errorf("benchmark and system are required")
	}
	// Layout overrides are "0 = use the benchmark default"; negative
	// values would otherwise flow unchecked into the runner and job
	// script (the runner only overrides on > 0, silently masking the
	// caller's mistake).
	if numTasks < 0 || tasksPerNode < 0 || cpusPerTask < 0 {
		return nil, "", fmt.Errorf("layout overrides must be non-negative (num_tasks=%d, tasks_per_node=%d, cpus_per_task=%d)",
			numTasks, tasksPerNode, cpusPerTask)
	}
	b, err := suite.ByName(benchmark)
	if err != nil {
		return nil, "", err
	}
	if _, _, err := s.runner.Estate.Resolve(system); err != nil {
		return nil, "", err
	}
	if spec != "" {
		if spec, err = suite.NormalizeModelSpec(spec); err != nil {
			return nil, "", err
		}
	}
	return b, spec, nil
}

// Submit validates a run request and enqueues it. It fails fast on an
// unknown benchmark or system, a negative layout override, a stale
// install-tree binary (pre-flight validation; surfaces as
// *buildsys.StaleBinaryError), or when the queue is full.
func (s *Server) Submit(req SubmitRequest) (*Run, error) {
	run, _, err := s.submit(req, "")
	return run, err
}

// submit is Submit plus the schedule provenance used by the recurring
// scheduler's firings; both paths share the queue and its backpressure.
// The runView is the run as accepted: rendered under the submit lock
// before any worker can take it off the queue, so it reads "queued" —
// what a 202 means — where rendering the *Run after submit returns may
// already show it running.
func (s *Server) submit(req SubmitRequest, scheduleID string) (*Run, runView, error) {
	benchmark, system := req.Benchmark, req.System
	b, specText, err := s.checkTarget(benchmark, system, req.Spec, req.NumTasks, req.TasksPerNode, req.CPUsPerTask)
	if err != nil {
		return nil, runView{}, err
	}
	if s.degraded {
		return nil, runView{}, errDegraded
	}
	if req.Repetitions < 0 || req.Warmup < 0 {
		return nil, runView{}, fmt.Errorf("repetitions and warmup must be non-negative (repetitions=%d, warmup=%d)",
			req.Repetitions, req.Warmup)
	}
	reps := req.Repetitions
	if reps == 0 {
		reps = 1
	}
	if err := stats.ValidateProtocol(reps, req.Warmup); err != nil {
		return nil, runView{}, err
	}
	// Pre-flight validation (the stale-binary postmortem): reject the
	// run before it enters the queue when an installed prefix the build
	// would consult no longer matches the concretized spec. The handler
	// maps *buildsys.StaleBinaryError to a typed 409. Any other
	// pre-flight failure (an unresolvable spec, say) falls through: the
	// run is accepted and fails asynchronously with full context, as it
	// always has.
	if err := s.runner.Preflight(b, core.Options{System: system, Spec: specText}); err != nil {
		var stale *buildsys.StaleBinaryError
		if errors.As(err, &stale) {
			return nil, runView{}, fmt.Errorf("service: preflight: %w", err)
		}
	}
	// The "service.submit" injection point models the submission path
	// itself failing transiently (the store behind it wobbling); the
	// handler maps it to 503 + Retry-After, like a full queue.
	if err := faultinject.Fire("service.submit"); err != nil {
		return nil, runView{}, fmt.Errorf("service: submit: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, runView{}, errShuttingDown
	}
	s.nextID++
	run := &Run{
		ID:           fmt.Sprintf("run-%06d", s.nextID),
		Benchmark:    benchmark,
		System:       system,
		Spec:         specText,
		ScheduleID:   scheduleID,
		NumTasks:     req.NumTasks,
		TasksPerNode: req.TasksPerNode,
		CPUsPerTask:  req.CPUsPerTask,
		Repetitions:  req.Repetitions,
		Warmup:       req.Warmup,
		status:       StatusQueued,
		submitted:    time.Now(),
	}
	accepted := viewRun(run)
	select {
	case s.queue <- run:
		s.runs[run.ID] = run
		s.order = append(s.order, run.ID)
		s.mu.Unlock()
		metricQueueDepth.Set(float64(len(s.queue)))
		s.cfg.Logger.Info("run submitted",
			"run_id", run.ID, "benchmark", benchmark, "system", system)
		return run, accepted, nil
	default:
		s.mu.Unlock()
		return nil, runView{}, errQueueFull
	}
}

var (
	errQueueFull    = fmt.Errorf("run queue is full")
	errShuttingDown = fmt.Errorf("server is shutting down")
	errDegraded     = fmt.Errorf("storage is degraded (segment manifest unreadable); daemon is read-only")
)

// Get returns a run by id.
func (s *Server) Get(id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	return r, ok
}

// worker drains the queue, executing each run through the full
// pipeline and ingesting its perflog entry.
func (s *Server) worker() {
	defer s.wg.Done()
	for run := range s.queue {
		s.execute(run)
	}
}

func (s *Server) execute(run *Run) {
	metricQueueDepth.Set(float64(len(s.queue)))
	metricRunsInFlight.Inc()
	defer metricRunsInFlight.Dec()
	run.set(func(r *Run) {
		r.status = StatusRunning
		r.started = time.Now()
	})
	// The run's trace publishes under its run id, so GET
	// /v1/traces/{runID} returns the span tree for the submitted run;
	// the run_id attribute lands on the root span and therefore on
	// every pipeline log line (via telemetry.ContextHandler).
	ctx := telemetry.WithTraceID(telemetry.WithTracer(context.Background(), s.tracer), run.ID)
	ctx, span := telemetry.Start(ctx, "benchd.run",
		telemetry.String("run_id", run.ID),
		telemetry.String("benchmark", run.Benchmark),
		telemetry.String("system", run.System))
	s.cfg.Logger.InfoContext(ctx, "run started")
	s.publish(eventbus.TypeRunStarted, s.runEventData(run, nil))
	b, err := suite.ByName(run.Benchmark)
	if err != nil {
		s.fail(ctx, span, run, err)
		return
	}
	report, err := s.runner.RunContext(ctx, b, core.Options{
		System:       run.System,
		Spec:         run.Spec,
		NumTasks:     run.NumTasks,
		TasksPerNode: run.TasksPerNode,
		CPUsPerTask:  run.CPUsPerTask,
		Repetitions:  run.Repetitions,
		Warmup:       run.Warmup,
	})
	if err != nil {
		s.fail(ctx, span, run, err)
		return
	}
	// The entry's commit put it in the store before the append returned.
	entry := report.Entry
	span.End(nil)
	metricRunsTotal.With(StatusCompleted).Inc()
	run.set(func(r *Run) {
		r.status = StatusCompleted
		r.finished = time.Now()
		r.entry = entry
	})
	s.cfg.Logger.InfoContext(ctx, "run completed",
		"result", entry.Result, "duration_s", span.Duration().Seconds())
	s.publish(eventbus.TypeRunFinished, s.runEventData(run, entry))
	if run.ScheduleID != "" {
		var runErr error
		if entry.Result != "pass" {
			runErr = fmt.Errorf("run %s: %s", entry.Result, entry.Extra["error"])
		}
		s.sched.Complete(run.ScheduleID, run.ID, entry.Extra["build_hash"], runErr)
		// The recorded build hash is the on-build-change baseline;
		// persist it so a reboot doesn't spuriously re-fire.
		s.persistSchedules()
		s.detectRegressions(ctx, run, entry)
	}
}

// runEventData is the wire payload for run lifecycle events.
func (s *Server) runEventData(run *Run, entry *perflog.Entry) map[string]string {
	data := map[string]string{
		"run_id":    run.ID,
		"benchmark": run.Benchmark,
		"system":    run.System,
	}
	if run.ScheduleID != "" {
		data["schedule_id"] = run.ScheduleID
	}
	run.mu.Lock()
	data["status"] = run.status
	if run.err != "" {
		data["error"] = run.err
	}
	run.mu.Unlock()
	if entry != nil {
		data["result"] = entry.Result
		for name, f := range entry.FOMs {
			data["fom_"+name] = fmt.Sprintf("%g %s", f.Value, f.Unit)
		}
	}
	return data
}

// detectRegressions runs the sliding-baseline evaluator over every FOM
// the scheduled run produced and publishes regression.detected for each
// flagged group — the push half of continuous benchmarking: nobody has
// to poll /v1/regressions to learn a scheduled run got slower. Each
// query pins the run's one (system, benchmark) group, so with a bounded
// window the store reads the newest window+1 runs of the pair and stops:
// the check costs the same however long the pair's history has grown.
func (s *Server) detectRegressions(ctx context.Context, run *Run, entry *perflog.Entry) {
	if s.cfg.RegressionWindow < 0 {
		return
	}
	for name := range entry.FOMs {
		q := perfstore.Query{Benchmark: entry.Benchmark, System: entry.System, FOM: name}
		reports, err := s.store.Regressions(q, s.cfg.RegressionTolerance, s.cfg.RegressionWindow)
		if err != nil {
			s.cfg.Logger.ErrorContext(ctx, "regression detection failed",
				"fom", name, "error", err.Error())
			continue
		}
		for _, rep := range reports {
			if !rep.Flagged {
				continue
			}
			s.cfg.Logger.WarnContext(ctx, "regression detected",
				"fom", name, "group", rep.Group,
				"baseline", rep.Baseline, "latest", rep.Latest, "change", rep.Change)
			s.publish(eventbus.TypeRegressionDetected, map[string]string{
				"run_id":      run.ID,
				"schedule_id": run.ScheduleID,
				"benchmark":   entry.Benchmark,
				"system":      entry.System,
				"fom":         name,
				"group":       rep.Group,
				"baseline":    fmt.Sprintf("%g", rep.Baseline),
				"latest":      fmt.Sprintf("%g", rep.Latest),
				"change":      fmt.Sprintf("%.4f", rep.Change),
				"tolerance":   fmt.Sprintf("%g", s.cfg.RegressionTolerance),
				"window":      fmt.Sprint(s.cfg.RegressionWindow),
			})
		}
	}
}

func (s *Server) fail(ctx context.Context, span *telemetry.Span, run *Run, err error) {
	span.End(err)
	metricRunsTotal.With(StatusFailed).Inc()
	run.set(func(r *Run) {
		r.status = StatusFailed
		r.finished = time.Now()
		r.err = err.Error()
	})
	s.cfg.Logger.ErrorContext(ctx, "run failed", "error", err.Error())
	s.publish(eventbus.TypeRunFinished, s.runEventData(run, nil))
	if run.ScheduleID != "" {
		s.sched.Complete(run.ScheduleID, run.ID, "", err)
	}
}
