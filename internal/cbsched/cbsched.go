// Package cbsched is the recurring-suite scheduler that turns benchd
// from a request-driven daemon into a continuous-benchmarking service:
// registered schedules re-run a suite on a jittered interval or when
// the build DAG hash changes, without any client request.
//
// The design follows the influxdb task scheduler (SNIPPETS.md Snippet
// 3): one Tick with an injectable clock, which the host calls on its
// own loop, evaluates every schedule's next-run time, and execution is
// delegated through a Start callback — here, benchd's bounded worker
// pool — whose backpressure the scheduler respects by backing off
// instead of queueing internally.
// Per-schedule state (last run, next run, consecutive failures,
// in-flight) lives in the scheduler; overlap suppression guarantees a
// schedule never has two in-flight runs no matter how slow the suite or
// fast the interval.
package cbsched

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/eventbus"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

var (
	metricFires = telemetry.DefaultRegistry.Counter(
		"benchd_sched_fires_total",
		"Schedule firings that submitted a run, by trigger (interval, build-change).",
		"trigger")
	metricSuppressed = telemetry.DefaultRegistry.Counter(
		"benchd_sched_overlap_suppressed_total",
		"Due schedule firings suppressed because the previous run was still in flight.").With()
	metricSubmitFailures = telemetry.DefaultRegistry.Counter(
		"benchd_sched_submit_failures_total",
		"Schedule firings whose submission was rejected (full queue, degraded store); the schedule backs off.").With()
	metricSchedules = telemetry.DefaultRegistry.Gauge(
		"benchd_sched_schedules",
		"Registered recurring schedules.").With()
)

// Duration marshals as a Go duration string ("90s", "5m") so persisted
// schedule files and API payloads stay human-readable and -writable.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("cbsched: bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// Spec declares one recurring suite: what to run and when to re-run
// it. At least one trigger (Every > 0 or OnBuildChange) must be set.
type Spec struct {
	ID   string `json:"id,omitempty"`
	Name string `json:"name,omitempty"`

	Benchmark string `json:"benchmark"`
	System    string `json:"system"`
	BuildSpec string `json:"spec,omitempty"`

	NumTasks     int `json:"num_tasks,omitempty"`
	TasksPerNode int `json:"tasks_per_node,omitempty"`
	CPUsPerTask  int `json:"cpus_per_task,omitempty"`

	// Every re-fires the suite on this interval (plus jitter). Zero
	// disables the interval trigger.
	Every Duration `json:"every,omitempty"`
	// OnBuildChange fires whenever the benchmark's concretized build
	// DAG hash differs from the hash of the schedule's last successful
	// run — the "a new toolchain landed, re-measure" trigger. The check
	// is paced by Every when set, else by every tick.
	OnBuildChange bool `json:"on_build_change,omitempty"`
}

// Validate checks the parts of a Spec the scheduler itself can judge
// (callers validate benchmark/system names against their estate).
func (sp Spec) Validate() error {
	if sp.Benchmark == "" || sp.System == "" {
		return fmt.Errorf("cbsched: benchmark and system are required")
	}
	if sp.Every <= 0 && !sp.OnBuildChange {
		return fmt.Errorf("cbsched: a schedule needs a trigger: every > 0 and/or on_build_change")
	}
	if sp.Every < 0 {
		return fmt.Errorf("cbsched: every must be positive, got %s", time.Duration(sp.Every))
	}
	if sp.NumTasks < 0 || sp.TasksPerNode < 0 || sp.CPUsPerTask < 0 {
		return fmt.Errorf("cbsched: layout overrides must be non-negative")
	}
	return nil
}

// Status is a schedule's spec plus its live state, as reported by List
// and Get and served by GET /v1/schedules.
type Status struct {
	Spec
	LastRunAt           time.Time `json:"last_run_at,omitempty"`
	NextRunAt           time.Time `json:"next_run_at,omitempty"`
	LastRunID           string    `json:"last_run_id,omitempty"`
	LastBuildHash       string    `json:"last_build_hash,omitempty"`
	LastError           string    `json:"last_error,omitempty"`
	ConsecutiveFailures int       `json:"consecutive_failures"`
	InFlight            bool      `json:"in_flight"`
	Fires               uint64    `json:"fires"`
	Suppressed          uint64    `json:"suppressed"`
}

// Persisted is what survives a daemon restart: the spec plus the last
// build hash, so an on-build-change schedule doesn't spuriously re-fire
// just because the daemon rebooted under an unchanged toolchain.
type Persisted struct {
	Spec          Spec   `json:"spec"`
	LastBuildHash string `json:"last_build_hash,omitempty"`
}

// schedule is the internal mutable state behind one Spec.
type schedule struct {
	spec     Spec
	lastRun  time.Time
	nextRun  time.Time
	lastID   string
	lastHash string
	lastErr  string
	failures int
	inFlight bool
	fires    uint64
	suppress uint64
}

// Config wires a Scheduler to its host.
type Config struct {
	// Start submits one run for the schedule through the host's bounded
	// worker pool and returns its run id. An error (full queue, degraded
	// store) counts as a failed firing: the schedule backs off with its
	// failure streak instead of hot-looping against backpressure.
	Start func(sp Spec) (runID string, err error)
	// Hash returns the benchmark's current concretized build DAG hash
	// on the schedule's system — the on-build-change trigger compares it
	// against the hash recorded by the schedule's last successful run.
	// Nil disables build-change triggers (Add rejects such specs).
	Hash func(sp Spec) (string, error)
	// Publish, when set, receives scheduler lifecycle events
	// (eventbus.TypeScheduleFired). Publish failures are the host's to
	// absorb; the scheduler fires regardless.
	Publish func(typ string, data map[string]string)

	// Now is the injectable clock (default time.Now).
	Now func() time.Time
	// TickInterval is how often the host calls Tick (default 1s); a pure
	// build-change schedule re-checks its hash once per interval.
	TickInterval time.Duration
	// Jitter is the fraction of Every added uniformly at random to each
	// next-run time, de-synchronising schedule herds (default 0.1,
	// clamped to [0,1]). The draw comes from Rand.
	Jitter float64
	// Rand supplies jitter draws in [0,1) (default math/rand; fix it in
	// tests for deterministic next-run times).
	Rand func() float64
	// BaseBackoff seeds the failure-streak backoff for schedules whose
	// Every is zero (default 5s).
	BaseBackoff time.Duration
	// MaxBackoff caps the failure-streak backoff (default 10m).
	MaxBackoff time.Duration
	// Logger receives tick and firing diagnostics (default slog.Default).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.TickInterval <= 0 {
		c.TickInterval = time.Second
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	if c.Jitter == 0 {
		c.Jitter = 0.1
	}
	if c.Jitter > 1 {
		c.Jitter = 1
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 5 * time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 10 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Scheduler owns the registered schedules. It starts no goroutine: its
// host calls Tick every TickInterval.
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	scheds map[string]*schedule
	order  []string // registration order, for stable listings
	nextID int
}

// New builds a scheduler. Start must be non-nil; Hash may be nil if no
// on-build-change schedules will be registered.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Start == nil {
		return nil, fmt.Errorf("cbsched: Config.Start is required")
	}
	return &Scheduler{
		cfg:    cfg.withDefaults(),
		scheds: map[string]*schedule{},
	}, nil
}

// Add registers a schedule. An empty ID is assigned; a duplicate ID is
// rejected. The first firing of an interval schedule lands one jittered
// interval from now; an on-build-change schedule is checked from the
// next tick.
func (s *Scheduler) Add(sp Spec) (Status, error) {
	if err := sp.Validate(); err != nil {
		return Status{}, err
	}
	if sp.OnBuildChange && s.cfg.Hash == nil {
		return Status{}, fmt.Errorf("cbsched: on_build_change needs a Hash callback")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sp.ID == "" {
		s.nextID++
		sp.ID = fmt.Sprintf("sched-%06d", s.nextID)
	} else if _, dup := s.scheds[sp.ID]; dup {
		return Status{}, fmt.Errorf("cbsched: schedule %q already exists", sp.ID)
	}
	sc := &schedule{spec: sp}
	now := s.cfg.Now()
	if sp.Every > 0 {
		sc.nextRun = now.Add(s.jittered(time.Duration(sp.Every)))
	} else {
		sc.nextRun = now // pure build-change: eligible from the next tick
	}
	s.scheds[sp.ID] = sc
	s.order = append(s.order, sp.ID)
	metricSchedules.Set(float64(len(s.scheds)))
	s.cfg.Logger.Info("schedule registered",
		"schedule_id", sp.ID, "benchmark", sp.Benchmark, "system", sp.System,
		"every", time.Duration(sp.Every).String(), "on_build_change", sp.OnBuildChange,
		"next_run", sc.nextRun)
	return statusLocked(sc), nil
}

// Remove unregisters a schedule. An in-flight run keeps executing; its
// completion is simply no longer recorded anywhere.
func (s *Scheduler) Remove(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.scheds[id]; !ok {
		return false
	}
	delete(s.scheds, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	metricSchedules.Set(float64(len(s.scheds)))
	s.cfg.Logger.Info("schedule removed", "schedule_id", id)
	return true
}

// Get returns one schedule's status.
func (s *Scheduler) Get(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, ok := s.scheds[id]
	if !ok {
		return Status{}, false
	}
	return statusLocked(sc), true
}

// List returns every schedule's status in registration order.
func (s *Scheduler) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, statusLocked(s.scheds[id]))
	}
	return out
}

// Snapshot returns the persistable view of every schedule, sorted by ID
// for a stable on-disk file.
func (s *Scheduler) Snapshot() []Persisted {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Persisted, 0, len(s.scheds))
	for _, sc := range s.scheds {
		out = append(out, Persisted{Spec: sc.spec, LastBuildHash: sc.lastHash})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.ID < out[j].Spec.ID })
	return out
}

// Restore registers persisted schedules (skipping invalid ones with a
// logged warning rather than refusing to boot) and advances the ID
// counter past every restored ID so new schedules never collide.
func (s *Scheduler) Restore(specs []Persisted) {
	for _, p := range specs {
		st, err := s.Add(p.Spec)
		if err != nil {
			s.cfg.Logger.Warn("dropping unrestorable schedule",
				"schedule_id", p.Spec.ID, "error", err.Error())
			continue
		}
		s.mu.Lock()
		if sc, ok := s.scheds[st.ID]; ok {
			sc.lastHash = p.LastBuildHash
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	for id := range s.scheds {
		var n int
		if _, err := fmt.Sscanf(id, "sched-%06d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	s.mu.Unlock()
}

func statusLocked(sc *schedule) Status {
	return Status{
		Spec:                sc.spec,
		LastRunAt:           sc.lastRun,
		NextRunAt:           sc.nextRun,
		LastRunID:           sc.lastID,
		LastBuildHash:       sc.lastHash,
		LastError:           sc.lastErr,
		ConsecutiveFailures: sc.failures,
		InFlight:            sc.inFlight,
		Fires:               sc.fires,
		Suppressed:          sc.suppress,
	}
}

// Counters returns scheduler-lifetime totals for /healthz.
func (s *Scheduler) Counters() (schedules int, fires, suppressed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sc := range s.scheds {
		fires += sc.fires
		suppressed += sc.suppress
	}
	return len(s.scheds), fires, suppressed
}

// Tick evaluates every schedule once against the injectable clock. It
// is called by the host every TickInterval and directly by tests. The
// "cbsched.tick" injection point models a wedged or crashed tick: the
// whole pass is skipped and the next tick retries — schedules fire
// late, never twice.
func (s *Scheduler) Tick() {
	if err := faultinject.Fire("cbsched.tick"); err != nil {
		s.cfg.Logger.Debug("tick skipped by fault injection", "error", err.Error())
		return
	}
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		sc := s.scheds[id]
		if now.Before(sc.nextRun) {
			continue
		}
		if sc.inFlight {
			// Overlap suppression: the previous run is still executing.
			// Re-arm one interval out so a long run doesn't cause a burst
			// of suppressed wakeups every tick.
			sc.suppress++
			metricSuppressed.Inc()
			sc.nextRun = now.Add(s.jittered(s.interval(sc)))
			s.cfg.Logger.Debug("schedule overlap suppressed",
				"schedule_id", id, "last_run_id", sc.lastID, "next_run", sc.nextRun)
			continue
		}
		trigger := "interval"
		if sc.spec.OnBuildChange {
			hash, err := s.cfg.Hash(sc.spec)
			if err != nil {
				s.failLocked(sc, now, fmt.Errorf("build hash: %w", err))
				continue
			}
			switch {
			case sc.lastHash == "" || hash != sc.lastHash:
				trigger = "build-change"
			case sc.spec.Every > 0:
				trigger = "interval" // hybrid: unchanged hash, interval still fires
			default:
				// Pure build-change schedule, hash unchanged: check again
				// next interval-or-tick without counting a fire.
				sc.nextRun = now.Add(s.checkInterval(sc))
				continue
			}
		}
		s.fireLocked(sc, now, trigger)
	}
}

// fireLocked publishes schedule.fired and submits the run. Called with
// the scheduler lock held; Start and Publish must not call back into
// the scheduler (benchd's worker-pool submit and bus publish do not).
func (s *Scheduler) fireLocked(sc *schedule, now time.Time, trigger string) {
	if s.cfg.Publish != nil {
		s.cfg.Publish(eventbus.TypeScheduleFired, map[string]string{
			"schedule_id": sc.spec.ID,
			"benchmark":   sc.spec.Benchmark,
			"system":      sc.spec.System,
			"trigger":     trigger,
		})
	}
	runID, err := s.cfg.Start(sc.spec)
	if err != nil {
		metricSubmitFailures.Inc()
		s.failLocked(sc, now, err)
		return
	}
	sc.inFlight = true
	sc.lastRun = now
	sc.lastID = runID
	sc.fires++
	metricFires.With(trigger).Inc()
	sc.nextRun = now.Add(s.jittered(s.interval(sc)))
	s.cfg.Logger.Info("schedule fired",
		"schedule_id", sc.spec.ID, "run_id", runID, "trigger", trigger,
		"next_run", sc.nextRun)
}

// failLocked records a failed firing (submission rejected, hash
// uncomputable) and backs the schedule off exponentially with its
// failure streak, so a full queue or a broken spec is probed gently
// instead of hammered every tick.
func (s *Scheduler) failLocked(sc *schedule, now time.Time, err error) {
	sc.failures++
	sc.lastErr = err.Error()
	backoff := s.backoff(sc)
	sc.nextRun = now.Add(backoff)
	s.cfg.Logger.Warn("schedule firing failed",
		"schedule_id", sc.spec.ID, "error", err.Error(),
		"consecutive_failures", sc.failures, "backoff", backoff.String())
}

// Complete reports a fired run's terminal state: the host calls it when
// the run finishes. A successful run clears the failure streak and
// records the run's build hash (the on-build-change baseline); a failed
// run grows the streak and pushes the next firing out by the backoff.
func (s *Scheduler) Complete(scheduleID, runID, buildHash string, runErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, ok := s.scheds[scheduleID]
	if !ok || sc.lastID != runID {
		return // removed while in flight, or a stale completion
	}
	sc.inFlight = false
	if runErr != nil {
		sc.failures++
		sc.lastErr = runErr.Error()
		sc.nextRun = s.cfg.Now().Add(s.backoff(sc))
		s.cfg.Logger.Warn("scheduled run failed",
			"schedule_id", scheduleID, "run_id", runID,
			"consecutive_failures", sc.failures, "error", runErr.Error())
		return
	}
	sc.failures = 0
	sc.lastErr = ""
	if buildHash != "" {
		sc.lastHash = buildHash
	}
}

// interval is the schedule's firing period: Every, or BaseBackoff for
// pure build-change schedules (their "period" only matters for overlap
// re-arming).
func (s *Scheduler) interval(sc *schedule) time.Duration {
	if sc.spec.Every > 0 {
		return time.Duration(sc.spec.Every)
	}
	return s.cfg.BaseBackoff
}

// checkInterval paces unchanged-hash probes: Every when set, else one
// tick.
func (s *Scheduler) checkInterval(sc *schedule) time.Duration {
	if sc.spec.Every > 0 {
		return s.jittered(time.Duration(sc.spec.Every))
	}
	return s.cfg.TickInterval
}

// jittered adds the configured uniform jitter fraction to d.
func (s *Scheduler) jittered(d time.Duration) time.Duration {
	return d + time.Duration(float64(d)*s.cfg.Jitter*s.cfg.Rand())
}

// backoff grows exponentially with the failure streak from the
// schedule's own interval (or BaseBackoff), capped at MaxBackoff.
func (s *Scheduler) backoff(sc *schedule) time.Duration {
	base := s.interval(sc)
	if base > s.cfg.MaxBackoff {
		base = s.cfg.MaxBackoff
	}
	streak := sc.failures
	if streak < 1 {
		streak = 1
	}
	d := float64(base) * math.Pow(2, float64(streak-1))
	if d > float64(s.cfg.MaxBackoff) {
		return s.cfg.MaxBackoff
	}
	return time.Duration(d)
}
