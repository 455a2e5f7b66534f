// Package obs is benchd's self-observability subsystem: the layer that
// turns the point-in-time telemetry registry into history, alerts, and
// evidence. A clock-injected sampler scrapes every registered metric
// (plus Go runtime stats) into bounded multi-resolution time-series
// rings each time its host calls Sample, once per Interval; a
// declarative alert engine evaluates threshold, rate-of-change, and
// absence rules with for-duration hysteresis on each tick and publishes
// alert.fired / alert.resolved through the event bus; firings trigger
// rate-limited pprof heap+goroutine captures into a bounded ring; and
// the whole corpus persists under the daemon's data dir with the atomic
// tmp+fsync+rename pattern so a reboot serves pre-reboot history.
//
// The paper's automation principle applied to the benchmarker itself:
// a continuous-benchmarking daemon running unattended for weeks must
// detect its own regressions — ingest stalls, queue backlog, cache-hit
// collapse, GC pressure — without a human re-running curl /metrics.
package obs

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

var (
	metricSamples = telemetry.DefaultRegistry.Counter(
		"obs_samples_total",
		"Self-telemetry sampler ticks completed.").With()
	metricSampleErrors = telemetry.DefaultRegistry.Counter(
		"obs_sample_errors_total",
		"Sampler ticks skipped by injected or real scrape failures.").With()
	metricSeries = telemetry.DefaultRegistry.Gauge(
		"obs_series",
		"Metric series with retained history.").With()
	metricAlertsFiring = telemetry.DefaultRegistry.Gauge(
		"obs_alerts_firing",
		"Alert rules currently in the firing state.").With()
	metricAlertsFired = telemetry.DefaultRegistry.Counter(
		"obs_alerts_fired_total",
		"Alert fire transitions published.").With()
	metricAlertsResolved = telemetry.DefaultRegistry.Counter(
		"obs_alerts_resolved_total",
		"Alert resolve transitions published, by reason.",
		"reason")
	metricHistoryFlushes = telemetry.DefaultRegistry.Counter(
		"obs_history_flushes_total",
		"History snapshots persisted.").With()
	metricHistoryFlushErrors = telemetry.DefaultRegistry.Counter(
		"obs_history_flush_errors_total",
		"History snapshot writes that failed (previous file kept).").With()
)

// Config sizes an Observer.
type Config struct {
	// Registry is the metrics source (default telemetry.DefaultRegistry).
	Registry *telemetry.Registry
	// Interval is how often the host calls Sample (default 10s); rate
	// and absence rules and history steps are computed from it.
	Interval time.Duration
	// RawCapacity is per-tier retained points per series (default 512).
	RawCapacity int
	// Tiers is the total resolution count including raw (default 3).
	Tiers int
	// Factor is the downsampling ratio between adjacent tiers
	// (default 10).
	Factor int
	// DataDir persists history and profiles when set ("" = in-memory
	// only; everything dies with the process).
	DataDir string
	// FlushEvery persists the history file every N samples in addition
	// to the host's final Flush (default 30; <0 disables periodic
	// flushes).
	FlushEvery int
	// ProfileLimit bounds retained pprof artifacts (default 16).
	ProfileLimit int
	// ProfileCooldown rate-limits alert-triggered captures (default 1m).
	ProfileCooldown time.Duration
	// Publish receives alert lifecycle events (nil = alerts evaluate
	// but publish nowhere).
	Publish func(typ string, data map[string]string)
	// Logger receives sampler diagnostics (default slog.Default).
	Logger *slog.Logger
	// Now supplies sample timestamps (default time.Now; fixed in tests).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = telemetry.DefaultRegistry
	}
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.RawCapacity <= 0 {
		c.RawCapacity = 512
	}
	if c.Tiers <= 0 {
		c.Tiers = 3
	}
	if c.Factor <= 1 {
		c.Factor = 10
	}
	if c.FlushEvery == 0 {
		c.FlushEvery = 30
	}
	if c.ProfileLimit <= 0 {
		c.ProfileLimit = 16
	}
	if c.ProfileCooldown <= 0 {
		c.ProfileCooldown = time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats summarises the observer for healthz.
type Stats struct {
	Series     int       `json:"series"`
	Samples    uint64    `json:"samples"`
	LastSample time.Time `json:"last_sample,omitempty"`
	Rules      int       `json:"rules"`
	Firing     int       `json:"firing"`
	Profiles   int       `json:"profiles"`
}

// Observer is the self-telemetry subsystem: sampler, history, alert
// engine, and profile ring behind one lock.
type Observer struct {
	cfg         Config
	historyPath string

	mu      sync.Mutex
	series  map[string]*series
	samples uint64
	last    time.Time
	rules   []*armedRule
	nextID  int
	prof    *capturer
}

// New builds an Observer, restoring persisted history when DataDir is
// set. A corrupt history file is logged and skipped — history is an
// aid, never worth refusing to boot over.
func New(cfg Config) (*Observer, error) {
	cfg = cfg.withDefaults()
	o := &Observer{
		cfg:    cfg,
		series: map[string]*series{},
	}
	profDir := ""
	if cfg.DataDir != "" {
		o.historyPath = filepath.Join(cfg.DataDir, HistoryFile)
		profDir = filepath.Join(cfg.DataDir, "profiles")
	}
	if err := o.loadHistory(); err != nil {
		cfg.Logger.Error("metric history unreadable, starting fresh", "error", err.Error())
	}
	prof, err := newCapturer(profDir, cfg.ProfileLimit, cfg.ProfileCooldown)
	if err != nil {
		return nil, err
	}
	o.prof = prof
	metricSeries.Set(float64(len(o.series)))
	return o, nil
}

// Flush writes the history file now: benchd's final flush on shutdown.
// A failed write keeps the previous file.
func (o *Observer) Flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.saveHistory()
}

// Sample runs one tick: scrape the registry and runtime, append to
// every series ring, evaluate the alert rules, and periodically flush
// history. Tests drive it directly with an injected clock. The
// "obs.sample" injection point fires before any state changes, so a
// failed tick observed nothing and changed nothing — alert hysteresis
// simply sees a longer gap between evaluations.
func (o *Observer) Sample(now time.Time) error {
	if err := faultinject.Fire("obs.sample"); err != nil {
		metricSampleErrors.Inc()
		return fmt.Errorf("obs: sample: %w", err)
	}
	samples := o.cfg.Registry.Snapshot()
	scrape := make(map[string]scraped, len(samples)+8)
	for _, s := range samples {
		scrape[s.Key()] = scraped{kind: s.Kind, value: s.Value}
	}
	for key, s := range runtimeSamples() {
		scrape[key] = s
	}

	o.mu.Lock()
	defer o.mu.Unlock()
	for key, sc := range scrape {
		ser, ok := o.series[key]
		if !ok {
			ser = newSeries(sc.kind, o.cfg.RawCapacity, o.cfg.Tiers)
			o.series[key] = ser
		}
		ser.add(now, sc.value, o.cfg.Factor)
	}
	o.samples++
	o.last = now
	metricSamples.Inc()
	metricSeries.Set(float64(len(o.series)))

	o.evaluateLocked(now, scrape)

	if o.cfg.FlushEvery > 0 && o.samples%uint64(o.cfg.FlushEvery) == 0 {
		if err := o.saveHistory(); err != nil {
			o.cfg.Logger.Warn("history flush failed (previous snapshot kept)", "error", err.Error())
		}
	}
	return nil
}

type scraped struct {
	kind  string
	value float64
}

// runtimeSamples scrapes the Go runtime: heap, GC, goroutines, and
// scheduling latency — the daemon-health signals the registry's
// application metrics don't carry.
func runtimeSamples() map[string]scraped {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := map[string]scraped{
		"go_goroutines":             {telemetry.SampleGauge, float64(runtime.NumGoroutine())},
		"go_heap_alloc_bytes":       {telemetry.SampleGauge, float64(ms.HeapAlloc)},
		"go_heap_objects":           {telemetry.SampleGauge, float64(ms.HeapObjects)},
		"go_gc_cycles_total":        {telemetry.SampleCounter, float64(ms.NumGC)},
		"go_gc_pause_total_seconds": {telemetry.SampleCounter, float64(ms.PauseTotalNs) / 1e9},
	}
	if p50, ok := schedLatencyP50(); ok {
		out["go_sched_latency_p50_seconds"] = scraped{telemetry.SampleGauge, p50}
	}
	return out
}

// schedLatencyP50 approximates the median goroutine scheduling latency
// from the runtime's histogram — the earliest visible symptom of an
// oversubscribed worker pool.
func schedLatencyP50() (float64, bool) {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0, false
	}
	h := s[0].Value.Float64Histogram()
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum*2 >= total {
			// Bucket i spans Buckets[i]..Buckets[i+1]; report its upper
			// edge (the last bucket's upper edge may be +Inf — use lower).
			hi := h.Buckets[i+1]
			if hi > 1e9 || hi != hi { // +Inf or NaN guard
				hi = h.Buckets[i]
			}
			return hi, true
		}
	}
	return 0, false
}

// evaluateLocked runs every rule against this tick's scrape and
// publishes state transitions. Caller holds o.mu.
func (o *Observer) evaluateLocked(now time.Time, scrape map[string]scraped) {
	firing := 0
	for _, ar := range o.rules {
		sc, present := scrape[ar.Metric]
		breaching := ar.evaluate(now, present, sc.value, o.series[ar.Metric], o.cfg.Interval)
		fired, resolved := ar.transition(now, breaching)
		if fired {
			metricAlertsFired.Inc()
			data := o.alertEventData(ar)
			// The capture happens before the event publishes so the fired
			// event can carry the profile ids it produced.
			if ids, err := o.prof.capture(now, ar.ID, ar.Metric); err != nil {
				o.cfg.Logger.Warn("alert profile capture failed", "alert", ar.ID, "error", err.Error())
			} else if len(ids) > 0 {
				for i, id := range ids {
					data[fmt.Sprintf("profile_%d", i)] = id
				}
			}
			o.cfg.Logger.Warn("alert fired", "alert", ar.ID, "metric", ar.Metric,
				"kind", ar.Kind, "value", ar.lastValue, "limit", ar.Value)
			o.publish(EventFired, data)
		}
		if resolved {
			metricAlertsResolved.With(ResolveRecovered).Inc()
			data := o.alertEventData(ar)
			data["reason"] = ResolveRecovered
			o.cfg.Logger.Info("alert resolved", "alert", ar.ID, "metric", ar.Metric)
			o.publish(EventResolved, data)
		}
		if ar.state == StateFiring {
			firing++
		}
	}
	metricAlertsFiring.Set(float64(firing))
}

// The event type names live in eventbus, but obs must not import the
// bus (the service layer owns that wiring); these mirror the constants
// and the service's tests pin them equal.
const (
	EventFired    = "alert.fired"
	EventResolved = "alert.resolved"
)

func (o *Observer) publish(typ string, data map[string]string) {
	if o.cfg.Publish != nil {
		o.cfg.Publish(typ, data)
	}
}

func (o *Observer) alertEventData(ar *armedRule) map[string]string {
	data := map[string]string{
		"alert_id": ar.ID,
		"metric":   ar.Metric,
		"kind":     ar.Kind,
		"state":    ar.state,
		"value":    fmt.Sprintf("%g", ar.lastValue),
		"limit":    fmt.Sprintf("%g", ar.Value),
		"since":    ar.since.Format(time.RFC3339Nano),
	}
	if ar.Name != "" {
		data["name"] = ar.Name
	}
	if ar.Op != "" {
		data["op"] = ar.Op
	}
	return data
}

// AddRule validates and arms a rule, assigning its id.
func (o *Observer) AddRule(r Rule) (RuleStatus, error) {
	if err := r.Validate(); err != nil {
		return RuleStatus{}, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.nextID++
	r.ID = fmt.Sprintf("alert-%06d", o.nextID)
	ar := &armedRule{Rule: r, state: StateOK}
	o.rules = append(o.rules, ar)
	return ar.status(), nil
}

// RemoveRule disarms a rule. A firing rule publishes a final resolved
// event (reason rule_deleted) so watchers never see a fire without a
// matching resolve.
func (o *Observer) RemoveRule(id string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, ar := range o.rules {
		if ar.ID != id {
			continue
		}
		o.rules = append(o.rules[:i], o.rules[i+1:]...)
		if ar.state == StateFiring {
			metricAlertsResolved.With(ResolveDeleted).Inc()
			data := o.alertEventData(ar)
			data["reason"] = ResolveDeleted
			o.publish(EventResolved, data)
		}
		return true
	}
	return false
}

// Rules returns every rule's status, in creation order.
func (o *Observer) Rules() []RuleStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]RuleStatus, len(o.rules))
	for i, ar := range o.rules {
		out[i] = ar.status()
	}
	return out
}

// Rule returns one rule's status.
func (o *Observer) Rule(id string) (RuleStatus, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, ar := range o.rules {
		if ar.ID == id {
			return ar.status(), true
		}
	}
	return RuleStatus{}, false
}

// RestoreRules re-arms persisted rules at boot, preserving their ids
// and advancing the id counter past them. Evaluation state resets to
// ok — a condition that still holds will re-fire after its For window,
// which is the honest behaviour for a daemon that was just down.
func (o *Observer) RestoreRules(rules []Rule) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, r := range rules {
		if r.Validate() != nil || r.ID == "" {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(r.ID, "alert-%d", &n); err == nil && n > o.nextID {
			o.nextID = n
		}
		o.rules = append(o.rules, &armedRule{Rule: r, state: StateOK})
	}
}

// SnapshotRules returns the bare rules for persistence.
func (o *Observer) SnapshotRules() []Rule {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]Rule, len(o.rules))
	for i, ar := range o.rules {
		out[i] = ar.Rule
	}
	return out
}

// ResolveFiring publishes alert.resolved (with the given reason) for
// every firing rule and returns how many it resolved — the graceful-
// shutdown path, so a watcher's last view of every alert is terminal.
func (o *Observer) ResolveFiring(reason string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, ar := range o.rules {
		if ar.state != StateFiring {
			continue
		}
		ar.state = StateOK
		ar.since = o.cfg.Now()
		metricAlertsResolved.With(reason).Inc()
		data := o.alertEventData(ar)
		data["reason"] = reason
		o.publish(EventResolved, data)
		n++
	}
	metricAlertsFiring.Set(0)
	return n
}

// Names lists every series with retained history, sorted.
func (o *Observer) Names() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.series))
	for k := range o.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// History returns one series' points at or after since, downsampled to
// the tier whose resolution best matches step (0 = finest available),
// plus the actual step of the tier served.
func (o *Observer) History(name string, since time.Time, step time.Duration) ([]Point, time.Duration, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ser, ok := o.series[name]
	if !ok {
		return nil, 0, false
	}
	pts, tier := ser.window(since, step, o.cfg.Interval, o.cfg.Factor)
	actual := o.cfg.Interval
	for i := 0; i < tier; i++ {
		actual *= time.Duration(o.cfg.Factor)
	}
	return pts, actual, true
}

// Latest returns a series' newest raw sample.
func (o *Observer) Latest(name string) (Point, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ser, ok := o.series[name]
	if !ok {
		return Point{}, false
	}
	return ser.latest()
}

// Profiles lists the retained pprof artifacts, oldest first.
func (o *Observer) Profiles() []ProfileInfo {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.prof.list()
}

// Profile returns one artifact's metadata and bytes.
func (o *Observer) Profile(id string) (ProfileInfo, []byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.prof.get(id)
}

// Stats summarises the observer for healthz.
func (o *Observer) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := Stats{
		Series:     len(o.series),
		Samples:    o.samples,
		LastSample: o.last,
		Rules:      len(o.rules),
		Profiles:   len(o.prof.infos),
	}
	for _, ar := range o.rules {
		if ar.state == StateFiring {
			st.Firing++
		}
	}
	return st
}

// Interval exposes the sampler's configured pace.
func (o *Observer) Interval() time.Duration { return o.cfg.Interval }
