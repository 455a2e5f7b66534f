// Package faultinject is a deterministic, seedable fault-injection
// registry. Production code declares named injection points on its hot
// paths (scheduler submission, DAG-node installs, perflog appends,
// perfstore re-sync reads, benchd handlers); tests and soak harnesses
// arm the registry with a schedule of rules, and every decision the
// registry makes is a pure function of (seed, rule, per-point call
// index) — the same seed replays the same fault sequence.
//
// When the registry is disarmed (the default) every injection point is
// a single atomic load, so instrumented hot paths cost nothing in
// production.
//
// A schedule is a comma-separated list of rules, each
// "point:kind[:key=value]...":
//
//	scheduler.submit:error:rate=0.3          30% of submits fail
//	buildsys.install:error:after=2:times=1   the 3rd install fails, once
//	perfstore.read:short:bytes=64:every=5    every 5th sync reads 64 bytes
//	perflog.sync:error:times=2               the first two fsyncs fail
//	core.append:delay:d=50ms                 every append sleeps 50ms
//
// Kinds are "error" (return a *Fault), "delay" (sleep, then proceed),
// and "short" (truncate a reader after N bytes). Gates compose: "rate"
// draws from the rule's seeded PRNG, "after" skips the first N calls,
// "every" fires on every Nth call, "times" caps total fires. Injected
// errors are transient (retryable) unless the rule says "permanent=1".
//
// Schedules load from the environment (BENCH_FAULTS / BENCH_FAULT_SEED)
// via LoadEnv, or programmatically via Load.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Injection-point telemetry: calls are counted only while the registry
// is armed, fires always. Both land in /metrics, so a chaos run can
// audit exactly which faults it injected.
var (
	metricCalls = telemetry.DefaultRegistry.Counter(
		"faultinject_calls_total",
		"Armed injection-point evaluations, by point.",
		"point")
	metricFired = telemetry.DefaultRegistry.Counter(
		"faultinject_fired_total",
		"Faults actually injected, by point and kind.",
		"point", "kind")
)

// Fault kinds.
const (
	KindError = "error" // return a *Fault from the injection point
	KindDelay = "delay" // sleep for Delay, then proceed normally
	KindShort = "short" // truncate a Reader after Bytes bytes
)

// Rule arms one injection point with one fault policy.
type Rule struct {
	Point string // injection-point name, e.g. "scheduler.submit"
	Kind  string // KindError, KindDelay or KindShort

	// Gates. All configured gates must pass for the rule to fire.
	Rate  float64 // probability per call from the rule's seeded PRNG (0 = always)
	After int     // skip the first After calls to the point
	Every int     // fire only on every Every-th call (0 = every call)
	Times int     // stop after Times fires (0 = unlimited)

	Delay     time.Duration // KindDelay: how long to sleep
	Bytes     int64         // KindShort: bytes delivered before the cut
	Msg       string        // optional error text override
	Permanent bool          // error faults are transient unless set
}

// Fault is the typed error an armed "error" rule injects.
type Fault struct {
	Point     string
	Msg       string
	permanent bool
}

func (f *Fault) Error() string {
	msg := f.Msg
	if msg == "" {
		msg = "injected fault"
	}
	return fmt.Sprintf("faultinject: %s: %s", f.Point, msg)
}

// Transient reports whether the fault models a recoverable condition —
// the retry layer's classification hook.
func (f *Fault) Transient() bool { return !f.permanent }

// Is reports whether err is (or wraps) an injected fault.
func Is(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// armedRule is a Rule plus its mutable firing state.
type armedRule struct {
	Rule
	rng   *rand.Rand
	fires int
}

// point tracks the per-call state of one injection point.
type point struct {
	mu    sync.Mutex
	rules []*armedRule
	calls int
}

// Registry holds an armed fault schedule. The zero registry is valid
// and disarmed.
type Registry struct {
	armed  atomic.Bool
	mu     sync.Mutex
	seed   int64
	points map[string]*point
}

// NewRegistry returns an empty, disarmed registry.
func NewRegistry() *Registry { return &Registry{} }

// Default is the process-wide registry every injection point consults.
var Default = NewRegistry()

// Load replaces the registry's schedule. Each rule gets its own PRNG
// stream derived from (seed, point, kind, rule index), so decisions are
// independent of other rules and reproducible for a given seed: the
// i-th call to a point always sees the i-th draw of its rules' streams.
// Loading an empty schedule disarms the registry.
func (r *Registry) Load(seed int64, rules []Rule) error {
	pts := map[string]*point{}
	for i, rule := range rules {
		if rule.Point == "" {
			return fmt.Errorf("faultinject: rule %d has no point", i)
		}
		switch rule.Kind {
		case KindError, KindDelay, KindShort:
		default:
			return fmt.Errorf("faultinject: rule %d (%s): unknown kind %q", i, rule.Point, rule.Kind)
		}
		if rule.Rate < 0 || rule.Rate > 1 {
			return fmt.Errorf("faultinject: rule %d (%s): rate %v out of [0,1]", i, rule.Point, rule.Rate)
		}
		p := pts[rule.Point]
		if p == nil {
			p = &point{}
			pts[rule.Point] = p
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%s|%d", rule.Point, rule.Kind, i)
		p.rules = append(p.rules, &armedRule{
			Rule: rule,
			rng:  rand.New(rand.NewSource(seed ^ int64(h.Sum64()))),
		})
	}
	r.mu.Lock()
	r.seed = seed
	r.points = pts
	r.mu.Unlock()
	r.armed.Store(len(pts) > 0)
	return nil
}

// Armed reports whether any rule is loaded.
func (r *Registry) Armed() bool { return r.armed.Load() }

// decide advances the point's call counter and returns the first rule
// that fires this call, or nil. Rate draws happen only on gated-in
// calls, so the decision for call N is a pure function of the schedule,
// the seed, and N.
func (r *Registry) decide(pt string, kinds ...string) *armedRule {
	if !r.armed.Load() {
		return nil
	}
	r.mu.Lock()
	p := r.points[pt]
	r.mu.Unlock()
	if p == nil {
		return nil
	}
	metricCalls.With(pt).Inc()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	for _, ar := range p.rules {
		if len(kinds) > 0 && !contains(kinds, ar.Kind) {
			continue
		}
		if ar.Times > 0 && ar.fires >= ar.Times {
			continue
		}
		if p.calls <= ar.After {
			continue
		}
		if ar.Every > 1 && p.calls%ar.Every != 0 {
			continue
		}
		if ar.Rate > 0 && ar.rng.Float64() >= ar.Rate {
			continue
		}
		ar.fires++
		metricFired.With(pt, ar.Kind).Inc()
		return ar
	}
	return nil
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// Fire evaluates an injection point: an armed "error" rule returns a
// *Fault, an armed "delay" rule sleeps then returns nil, and a disarmed
// point returns nil at the cost of one atomic load.
func (r *Registry) Fire(pt string) error {
	return r.FireContext(context.Background(), pt)
}

// FireContext is Fire with context-aware delays: an injected delay
// returns early with the context's error when the deadline passes
// first, which is how per-stage timeouts observe injected hangs.
func (r *Registry) FireContext(ctx context.Context, pt string) error {
	ar := r.decide(pt, KindError, KindDelay)
	if ar == nil {
		return nil
	}
	switch ar.Kind {
	case KindDelay:
		t := time.NewTimer(ar.Delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("faultinject: %s: injected delay interrupted: %w", pt, ctx.Err())
		}
	default:
		return &Fault{Point: pt, Msg: ar.Msg, permanent: ar.Permanent}
	}
}

// ShortRead evaluates an injection point for "short" rules, returning
// the byte budget to deliver before cutting the stream.
func (r *Registry) ShortRead(pt string) (int64, bool) {
	ar := r.decide(pt, KindShort)
	if ar == nil {
		return 0, false
	}
	return ar.Bytes, true
}

// Reader wraps rd with the point's short-read faults: when a "short"
// rule fires, the returned reader delivers at most the rule's byte
// budget and then reports EOF — a torn read mid-line, exactly what a
// crashed writer or a truncated NFS page leaves behind. Disarmed points
// return rd unchanged.
func (r *Registry) Reader(pt string, rd io.Reader) io.Reader {
	n, ok := r.ShortRead(pt)
	if !ok {
		return rd
	}
	return io.LimitReader(rd, n)
}

// Points returns the armed injection-point names, sorted.
func (r *Registry) Points() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.points))
	for pt := range r.points {
		out = append(out, pt)
	}
	sort.Strings(out)
	return out
}

// Package-level wrappers over Default, what instrumented call sites use.

// Fire evaluates pt against the Default registry.
func Fire(pt string) error { return Default.Fire(pt) }

// FireContext evaluates pt against the Default registry with ctx-aware
// delays.
func FireContext(ctx context.Context, pt string) error { return Default.FireContext(ctx, pt) }

// Reader wraps rd with the Default registry's short-read faults for pt.
func Reader(pt string, rd io.Reader) io.Reader { return Default.Reader(pt, rd) }

// Load replaces the Default registry's schedule.
func Load(seed int64, rules []Rule) error { return Default.Load(seed, rules) }

// Reset disarms the Default registry and clears its schedule (loading
// no rules cannot fail).
func Reset() { Default.Load(0, nil) }

// Armed reports whether the Default registry has a schedule loaded.
func Armed() bool { return Default.Armed() }

// ParseSchedule parses the "point:kind[:key=value]..." rule list
// described in the package comment.
func ParseSchedule(s string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("faultinject: rule %q needs point:kind", part)
		}
		rule := Rule{Point: fields[0], Kind: fields[1]}
		switch rule.Kind {
		case KindError, KindDelay, KindShort:
		default:
			return nil, fmt.Errorf("faultinject: rule %q: unknown kind %q", part, rule.Kind)
		}
		for _, kv := range fields[2:] {
			key, val, found := strings.Cut(kv, "=")
			if !found {
				return nil, fmt.Errorf("faultinject: rule %q: option %q is not key=value", part, kv)
			}
			var err error
			switch key {
			case "rate":
				rule.Rate, err = strconv.ParseFloat(val, 64)
			case "after":
				rule.After, err = strconv.Atoi(val)
			case "every":
				rule.Every, err = strconv.Atoi(val)
			case "times":
				rule.Times, err = strconv.Atoi(val)
			case "bytes":
				rule.Bytes, err = strconv.ParseInt(val, 10, 64)
			case "d", "delay":
				rule.Delay, err = time.ParseDuration(val)
			case "msg":
				rule.Msg = val
			case "permanent":
				rule.Permanent = val == "1" || val == "true"
			default:
				return nil, fmt.Errorf("faultinject: rule %q: unknown option %q", part, key)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule %q: bad %s: %v", part, key, err)
			}
		}
		rules = append(rules, rule)
	}
	return rules, nil
}

// Environment variables LoadEnv reads.
const (
	EnvSchedule = "BENCH_FAULTS"
	EnvSeed     = "BENCH_FAULT_SEED"
)

// LoadEnv arms the Default registry from BENCH_FAULTS (a schedule
// string) and BENCH_FAULT_SEED (int64, default 1), using the given
// lookup (os.LookupEnv in the binaries). It is a no-op when BENCH_FAULTS
// is unset or empty.
func LoadEnv(lookup func(string) (string, bool)) error {
	sched, ok := lookup(EnvSchedule)
	if !ok || strings.TrimSpace(sched) == "" {
		return nil
	}
	seed := int64(1)
	if v, ok := lookup(EnvSeed); ok && v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("faultinject: bad %s %q: %v", EnvSeed, v, err)
		}
		seed = n
	}
	rules, err := ParseSchedule(sched)
	if err != nil {
		return err
	}
	return Load(seed, rules)
}
