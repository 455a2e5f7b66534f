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
	"path/filepath"
	"sync"
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
	// MaintenanceInterval paces the seal/compact maintenance loop
	// (default 30s).
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
	// TraceBuffer bounds the in-memory ring of recent run traces served
	// by /v1/traces (default 256).
	TraceBuffer int
	// QueryCacheSize bounds the generation-stamped LRU cache of
	// aggregate and regression results (default 256 entries).
	QueryCacheSize int
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
	// SchedJitter is the fraction of each schedule interval added as
	// uniform jitter (default 0.1).
	SchedJitter float64
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
	// HistoryCapacity is the per-tier retained points per metric series
	// (default 512).
	HistoryCapacity int
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
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = 256
	}
	if c.QueryCacheSize <= 0 {
		c.QueryCacheSize = 256
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
	// writer is the shared group-commit perflog writer every worker's
	// append stage goes through: concurrent runs coalesce into batches
	// of one write + one fsync, and each durable commit feeds the store
	// directly (see commitIngest).
	writer *perflog.Writer
	tracer *telemetry.Tracer
	cache  *queryCache
	bus    *eventbus.Bus
	sched  *cbsched.Scheduler
	obs    *obs.Observer

	// persistMu serializes schedule-registry saves (atomic replace of
	// one file; concurrent savers must not interleave tmp writes).
	persistMu sync.Mutex

	queue chan *Run

	// degraded marks a tiered boot whose manifest could not be read
	// even with retries: the store was rebuilt from the perflog text
	// tree (the source of truth) and serves queries, but submissions
	// are refused so the daemon never writes state it could not fully
	// recover.
	degraded bool

	mu      sync.Mutex
	runs    map[string]*Run
	order   []string // submission order, for listing
	nextID  int
	closed  bool
	started time.Time

	wg        sync.WaitGroup
	maintWG   sync.WaitGroup
	maintStop chan struct{}
	http      *http.Server
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
		cfg:       cfg,
		store:     store,
		runner:    runner,
		tracer:    telemetry.NewTracer(cfg.TraceBuffer),
		cache:     newQueryCache(cfg.QueryCacheSize),
		bus:       eventbus.New(cfg.ReplayBuffer),
		queue:     make(chan *Run, cfg.QueueDepth),
		runs:      map[string]*Run{},
		started:   time.Now(),
		degraded:  degraded,
		maintStop: make(chan struct{}),
	}
	sched, err := cbsched.New(cbsched.Config{
		Start:        s.startScheduled,
		Hash:         s.scheduleBuildHash,
		Publish:      s.publish,
		TickInterval: cfg.TickInterval,
		Jitter:       cfg.SchedJitter,
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
		RawCapacity:     cfg.HistoryCapacity,
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
	// workers. The daemon's perflog writes all flow through this one
	// group-commit writer via the runner's append stage, so concurrent
	// runs share commits (one write + one fsync per batch) and each
	// durable commit is handed straight to the store.
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
	if cfg.DataDir != "" && !degraded {
		s.maintWG.Add(1)
		go s.maintain()
	}
	// A degraded (read-only) daemon keeps its registry queryable but
	// does not tick: every firing would be refused by the store anyway.
	if !degraded {
		s.sched.Start()
	}
	s.obs.Start()
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

// Obs exposes the self-observability subsystem (tests drive Sample
// directly through it).
func (s *Server) Obs() *obs.Observer { return s.obs }

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

// maintain is the storage maintenance loop: it periodically seals a
// grown head into a segment and compacts accumulated small segments,
// keeping boot O(headers) and query fan-out bounded without blocking
// the ingest or query paths for longer than one manifest swap.
func (s *Server) maintain() {
	defer s.maintWG.Done()
	t := time.NewTicker(s.cfg.MaintenanceInterval)
	defer t.Stop()
	for {
		select {
		case <-s.maintStop:
			return
		case <-t.C:
			if n, err := s.store.MaybeSeal(s.cfg.SealThreshold); err != nil {
				s.cfg.Logger.Error("seal failed", "error", err.Error())
			} else if n > 0 {
				s.cfg.Logger.Info("head sealed", "entries", n)
				s.publish(eventbus.TypeStoreSealed, map[string]string{
					"entries": fmt.Sprint(n), "reason": "maintenance",
				})
			}
			if ran, err := s.store.Compact(s.cfg.CompactSegments); err != nil {
				s.cfg.Logger.Error("compaction failed", "error", err.Error())
			} else if ran {
				s.cfg.Logger.Info("segments compacted")
			}
		}
	}
}

// Store exposes the underlying perfstore (the CLI-equivalent query
// path).
func (s *Server) Store() *perfstore.Store { return s.store }

// Runner exposes the pipeline runner so harnesses (the chaos suite) can
// tune its retry policy and stage timeout before submitting work.
func (s *Server) Runner() *core.Runner { return s.runner }

// Writer exposes the shared group-commit perflog writer (tests flush
// through it).
func (s *Server) Writer() *perflog.Writer { return s.writer }

// commitIngest runs on the writer's committer goroutine once per file
// per durable commit: the batch's entries enter the store directly —
// one shard pass, one generation bump — and the checkpoint advances
// past the commit's bytes, so the worker-side SyncFile that follows
// re-parses nothing the commit just made durable.
func (s *Server) commitIngest(c perflog.Commit) {
	metricIngestBatch.Observe(float64(len(c.Entries)))
	s.store.AddBatch(c)
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
	benchmark, system, specText := req.Benchmark, req.System, req.Spec
	if benchmark == "" || system == "" {
		return nil, runView{}, fmt.Errorf("benchmark and system are required")
	}
	if s.degraded {
		return nil, runView{}, errDegraded
	}
	// Layout overrides are "0 = use the benchmark default"; negative
	// values would otherwise flow unchecked into the runner and job
	// script (the runner only overrides on > 0, silently masking the
	// caller's mistake).
	if req.NumTasks < 0 || req.TasksPerNode < 0 || req.CPUsPerTask < 0 {
		return nil, runView{}, fmt.Errorf("layout overrides must be non-negative (num_tasks=%d, tasks_per_node=%d, cpus_per_task=%d)",
			req.NumTasks, req.TasksPerNode, req.CPUsPerTask)
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
	b, err := suite.ByName(benchmark)
	if err != nil {
		return nil, runView{}, err
	}
	if _, _, err := s.runner.Estate.Resolve(system); err != nil {
		return nil, runView{}, err
	}
	if specText != "" {
		norm, err := suite.NormalizeModelSpec(specText)
		if err != nil {
			return nil, runView{}, err
		}
		specText = norm
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
	entry := report.Entry
	// The runner's append stage already wrote the entry through the
	// shared group-commit writer (exactly once — the append is never
	// retried, since a retry after landed-but-unacknowledged bytes
	// would duplicate the line), and the commit's OnCommit hook fed it
	// to the store. The retried SyncFile below is the idempotent
	// reconciliation pass: normally a checkpoint no-op that re-parses
	// zero bytes, it only reads when out-of-band appenders touched the
	// file or a commit notification was declined, and it is safe to
	// retry through transient store faults.
	logPath := filepath.Join(s.store.Root(), entry.System, entry.Benchmark+".log")
	if err := s.runner.Retry.Do(ctx, "benchd.ingest", func(context.Context, int) error {
		return s.store.SyncFile(logPath)
	}); err != nil {
		s.fail(ctx, span, run, fmt.Errorf("run executed but ingest failed: %w", err))
		return
	}
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

// Start serves HTTP on addr until Shutdown. It blocks, returning
// http.ErrServerClosed after a clean shutdown.
func (s *Server) Start(addr string) error {
	s.http = &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       s.cfg.RequestTimeout,
		WriteTimeout:      2 * s.cfg.RequestTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	return s.http.ListenAndServe()
}

// Shutdown stops accepting work, waits for in-flight HTTP requests
// (bounded by ctx) and for queued runs to drain, then returns. Pending
// runs still execute: submitted work is never silently dropped. A
// tiered store seals its remaining head on the way out, so the next
// boot recovers entirely from segments and parses zero perflog bytes.
//
// Ordering matters around the bus: the scheduler stops first (no new
// firings), queued runs drain (each still publishes its lifecycle
// events), then a terminal server.shutdown event is published and the
// bus closed. Watch handlers end their streams on that terminal event
// (or on bus close), which is what lets http.Shutdown — running
// concurrently, since it blocks on active SSE handlers — complete.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
		close(s.maintStop)
	}
	s.mu.Unlock()
	s.sched.Stop()
	httpDone := make(chan error, 1)
	if s.http != nil {
		go func() { httpDone <- s.http.Shutdown(ctx) }()
	} else {
		httpDone <- nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.maintWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Even on a deadline the writer closes: the accumulating batch is
		// force-flushed (acked ⇒ durable holds for whatever made it in),
		// appenders blocked on it are released now rather than after
		// MaxDelay, and the cached descriptors don't leak. Appends racing
		// the close fail with ErrWriterClosed — their runs were never
		// acknowledged, so nothing durable is lost.
		if err := s.writer.Close(); err != nil {
			s.cfg.Logger.Error("perflog writer close failed", "error", err.Error())
		}
		// We still terminate streams: subscribers get the terminal event
		// (or ErrClosed) instead of hanging. Firing alerts resolve first
		// so no watcher's last view of an alert is a dangling fire.
		s.obs.ResolveFiring(obs.ResolveShutdown)
		s.obs.Stop()
		s.publish(eventbus.TypeServerShutdown, nil)
		s.bus.Close()
		return ctx.Err()
	}
	// Workers are drained: flush and close the group-commit writer so
	// every acknowledged entry (and any batch still accumulating) is on
	// disk and in the store before the final seal snapshots ingest
	// checkpoints into segment watermarks.
	if err := s.writer.Close(); err != nil {
		s.cfg.Logger.Error("perflog writer close failed", "error", err.Error())
	}
	// The sampler stops — flushing its final history snapshot — before
	// the final seal, so the persisted history covers the daemon's whole
	// life including the drain it just finished observing.
	s.obs.Stop()
	if s.cfg.DataDir != "" && !s.degraded {
		if n, err := s.store.Seal(); err != nil {
			// The perflog tree still holds everything unsealed; the next
			// boot re-ingests the tail, so a failed final seal degrades
			// boot time, not durability.
			s.cfg.Logger.Error("final seal failed", "error", err.Error())
		} else if n > 0 {
			s.cfg.Logger.Info("head sealed on shutdown", "entries", n)
			s.publish(eventbus.TypeStoreSealed, map[string]string{
				"entries": fmt.Sprint(n), "reason": "shutdown",
			})
		}
	}
	// Still-firing alerts resolve (reason shutdown) before the terminal
	// event, so a watcher replaying the stream sees every fire matched by
	// a resolve — shutdown is not an outage that leaves alerts dangling.
	if n := s.obs.ResolveFiring(obs.ResolveShutdown); n > 0 {
		s.cfg.Logger.Info("firing alerts resolved by shutdown", "count", n)
	}
	s.publish(eventbus.TypeServerShutdown, nil)
	s.bus.Close()
	return <-httpDone
}
