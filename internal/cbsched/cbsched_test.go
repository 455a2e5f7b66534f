package cbsched

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eventbus"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// harness is a scheduler over a fake clock and a recording executor:
// tests advance time and call Tick directly, so every firing decision
// is deterministic.
type harness struct {
	t   *testing.T
	s   *Scheduler
	now time.Time

	mu       sync.Mutex
	started  []string // run ids handed out, in order
	startErr error
	hash     string
	hashErr  error
	events   []string // "type schedule_id trigger"
}

func newHarness(t *testing.T, mutate func(*Config)) *harness {
	t.Helper()
	h := &harness{t: t, now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC), hash: "hash-a"}
	cfg := Config{
		Now:          func() time.Time { return h.now },
		TickInterval: time.Second,
		Rand:         NoJitter,
		Start: func(sp Spec) (string, error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			if h.startErr != nil {
				return "", h.startErr
			}
			id := fmt.Sprintf("run-%03d", len(h.started)+1)
			h.started = append(h.started, id)
			return id, nil
		},
		Hash: func(sp Spec) (string, error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			return h.hash, h.hashErr
		},
		Publish: func(typ string, data map[string]string) {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.events = append(h.events, typ+" "+data["schedule_id"]+" "+data["trigger"])
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.s = s
	return h
}

func (h *harness) advance(d time.Duration) { h.now = h.now.Add(d) }

func (h *harness) runs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.started...)
}

func TestValidate(t *testing.T) {
	cases := []struct {
		sp   Spec
		want string
	}{
		{Spec{System: "a", Every: Duration(time.Second)}, "required"},
		{Spec{Benchmark: "b", System: "a"}, "trigger"},
		{Spec{Benchmark: "b", System: "a", Every: Duration(time.Second), NumTasks: -1}, "non-negative"},
	}
	for _, c := range cases {
		err := c.sp.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want containing %q", c.sp, err, c.want)
		}
	}
	ok := Spec{Benchmark: "b", System: "a", OnBuildChange: true}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v", ok, err)
	}
}

// TestIntervalFiring: a 30s schedule fires once per interval, not per
// tick, and not before the first interval elapses.
func TestIntervalFiring(t *testing.T) {
	h := newHarness(t, nil)
	st, err := h.s.Add(Spec{Benchmark: "bs", System: "sys", Every: Duration(30 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if want := h.now.Add(30 * time.Second); !st.NextRunAt.Equal(want) {
		t.Fatalf("next run = %v, want %v", st.NextRunAt, want)
	}
	h.s.Tick() // immediately: nothing due
	h.advance(29 * time.Second)
	h.s.Tick()
	if got := h.runs(); len(got) != 0 {
		t.Fatalf("fired early: %v", got)
	}
	h.advance(time.Second)
	h.s.Tick()
	h.s.Tick() // same instant: must not double-fire
	if got := h.runs(); len(got) != 1 {
		t.Fatalf("runs = %v, want 1", got)
	}
	// Completion re-arms; the next interval fires again.
	h.s.Complete(st.ID, "run-001", "hash-a", nil)
	h.advance(30 * time.Second)
	h.s.Tick()
	if got := h.runs(); len(got) != 2 {
		t.Fatalf("runs = %v, want 2", got)
	}
	got, _ := h.s.Get(st.ID)
	if got.Fires != 2 || got.InFlight != true || got.ConsecutiveFailures != 0 {
		t.Fatalf("status = %+v", got)
	}
	// schedule.fired events published with the trigger.
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.events) != 2 || h.events[0] != eventbus.TypeScheduleFired+" "+st.ID+" interval" {
		t.Fatalf("events = %v", h.events)
	}
}

// TestJitterBounds: with a real random draw, every next-run time lands
// in [every, every*(1+jitter)].
func TestJitterBounds(t *testing.T) {
	const every, jitter = 10 * time.Second, 0.2
	draws := []float64{0, 0.5, 0.999}
	i := 0
	h := newHarness(t, func(c *Config) {
		c.Jitter = jitter
		c.Rand = func() float64 { d := draws[i%len(draws)]; i++; return d }
	})
	for n := 0; n < 3; n++ {
		st, err := h.s.Add(Spec{Benchmark: "bs", System: "sys", Every: Duration(every)})
		if err != nil {
			t.Fatal(err)
		}
		delay := st.NextRunAt.Sub(h.now)
		lo, hi := every, every+time.Duration(jitter*float64(every))
		if delay < lo || delay > hi {
			t.Errorf("draw %d: delay %v outside [%v, %v]", n, delay, lo, hi)
		}
		want := every + time.Duration(draws[n]*jitter*float64(every))
		if delay != want {
			t.Errorf("draw %d: delay %v, want %v", n, delay, want)
		}
	}
}

// TestOnBuildChange: a pure build-change schedule fires when the hash
// first appears and whenever it changes, and stays quiet while it is
// stable.
func TestOnBuildChange(t *testing.T) {
	h := newHarness(t, nil)
	st, err := h.s.Add(Spec{Benchmark: "bs", System: "sys", OnBuildChange: true})
	if err != nil {
		t.Fatal(err)
	}
	// First tick: no recorded hash yet -> establish the baseline by
	// firing once.
	h.s.Tick()
	if got := h.runs(); len(got) != 1 {
		t.Fatalf("runs = %v, want 1 (baseline fire)", got)
	}
	h.s.Complete(st.ID, "run-001", "hash-a", nil)

	// Stable hash: ticks pass, nothing fires.
	for i := 0; i < 5; i++ {
		h.advance(time.Second)
		h.s.Tick()
	}
	if got := h.runs(); len(got) != 1 {
		t.Fatalf("fired on unchanged hash: %v", got)
	}

	// The toolchain moves: next tick fires with the build-change
	// trigger.
	h.mu.Lock()
	h.hash = "hash-b"
	h.mu.Unlock()
	h.advance(time.Second)
	h.s.Tick()
	if got := h.runs(); len(got) != 2 {
		t.Fatalf("runs = %v, want 2 after hash change", got)
	}
	h.mu.Lock()
	lastEvent := h.events[len(h.events)-1]
	h.mu.Unlock()
	if lastEvent != eventbus.TypeScheduleFired+" "+st.ID+" build-change" {
		t.Fatalf("event = %q", lastEvent)
	}
	// Completion with the new hash re-baselines.
	h.s.Complete(st.ID, "run-002", "hash-b", nil)
	h.advance(time.Second)
	h.s.Tick()
	if got := h.runs(); len(got) != 2 {
		t.Fatalf("re-fired after re-baseline: %v", got)
	}
}

// TestHybridIntervalAndBuildChange: with both triggers, an unchanged
// hash still fires on the interval, and the trigger label tells them
// apart.
func TestHybridIntervalAndBuildChange(t *testing.T) {
	h := newHarness(t, nil)
	st, err := h.s.Add(Spec{
		Benchmark: "bs", System: "sys",
		Every: Duration(10 * time.Second), OnBuildChange: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.advance(10 * time.Second)
	h.s.Tick() // no baseline hash yet -> build-change
	h.s.Complete(st.ID, "run-001", "hash-a", nil)
	h.advance(10 * time.Second)
	h.s.Tick() // unchanged hash, interval due -> interval
	h.s.Complete(st.ID, "run-002", "hash-a", nil)
	if got := h.runs(); len(got) != 2 {
		t.Fatalf("runs = %v", got)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !strings.HasSuffix(h.events[0], "build-change") || !strings.HasSuffix(h.events[1], "interval") {
		t.Fatalf("events = %v", h.events)
	}
}

// TestOverlapSuppression: a schedule whose run outlives its interval
// never has two runs in flight; suppressed wakeups are counted and the
// schedule re-arms.
func TestOverlapSuppression(t *testing.T) {
	h := newHarness(t, nil)
	st, err := h.s.Add(Spec{Benchmark: "bs", System: "sys", Every: Duration(time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	h.advance(time.Second)
	h.s.Tick() // fires; run stays in flight
	for i := 0; i < 4; i++ {
		h.advance(time.Second)
		h.s.Tick() // due again, but suppressed
	}
	if got := h.runs(); len(got) != 1 {
		t.Fatalf("runs = %v, want 1 while in flight", got)
	}
	got, _ := h.s.Get(st.ID)
	if got.Suppressed != 4 || got.Fires != 1 {
		t.Fatalf("status = %+v", got)
	}
	// Completion releases the slot; the next due tick fires.
	h.s.Complete(st.ID, "run-001", "hash-a", nil)
	h.advance(time.Second)
	h.s.Tick()
	if got := h.runs(); len(got) != 2 {
		t.Fatalf("runs = %v, want 2 after completion", got)
	}
}

// TestFailureStreakBackoff: rejected submissions and failed runs grow
// an exponential backoff from the schedule's interval, capped, and one
// success clears the streak.
func TestFailureStreakBackoff(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.MaxBackoff = 40 * time.Second })
	st, err := h.s.Add(Spec{Benchmark: "bs", System: "sys", Every: Duration(10 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	h.startErr = fmt.Errorf("run queue is full")
	h.mu.Unlock()

	wantBackoffs := []time.Duration{
		10 * time.Second, // streak 1: base
		20 * time.Second, // streak 2: *2
		40 * time.Second, // streak 3: *4
		40 * time.Second, // streak 4: capped
	}
	for i, want := range wantBackoffs {
		st2, _ := h.s.Get(st.ID)
		h.now = st2.NextRunAt
		h.s.Tick()
		got, _ := h.s.Get(st.ID)
		if got.ConsecutiveFailures != i+1 {
			t.Fatalf("streak = %d, want %d", got.ConsecutiveFailures, i+1)
		}
		if d := got.NextRunAt.Sub(h.now); d != want {
			t.Fatalf("failure %d: backoff %v, want %v", i+1, d, want)
		}
		if got.LastError == "" {
			t.Fatal("LastError not recorded")
		}
	}
	if got := h.runs(); len(got) != 0 {
		t.Fatalf("runs = %v, want none", got)
	}

	// The queue opens up: the next firing succeeds and clears the
	// streak.
	h.mu.Lock()
	h.startErr = nil
	h.mu.Unlock()
	st2, _ := h.s.Get(st.ID)
	h.now = st2.NextRunAt
	h.s.Tick()
	h.s.Complete(st.ID, "run-001", "hash-a", nil)
	got, _ := h.s.Get(st.ID)
	if got.ConsecutiveFailures != 0 || got.LastError != "" || got.Fires != 1 {
		t.Fatalf("status after recovery = %+v", got)
	}

	// A failed *run* (not submission) also grows the streak.
	h.now = got.NextRunAt
	h.s.Tick()
	h.s.Complete(st.ID, "run-002", "", fmt.Errorf("sanity check failed"))
	got, _ = h.s.Get(st.ID)
	if got.ConsecutiveFailures != 1 || got.InFlight {
		t.Fatalf("status after failed run = %+v", got)
	}
}

func TestCRUDAndRestore(t *testing.T) {
	h := newHarness(t, nil)
	a, _ := h.s.Add(Spec{Benchmark: "a", System: "s", Every: Duration(time.Minute)})
	b, _ := h.s.Add(Spec{Benchmark: "b", System: "s", OnBuildChange: true})
	if a.ID == b.ID || a.ID == "" {
		t.Fatalf("ids: %q %q", a.ID, b.ID)
	}
	if _, err := h.s.Add(Spec{ID: a.ID, Benchmark: "c", System: "s", Every: Duration(time.Minute)}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if got := h.s.List(); len(got) != 2 || got[0].ID != a.ID {
		t.Fatalf("list = %+v", got)
	}
	if !h.s.Remove(a.ID) || h.s.Remove(a.ID) {
		t.Fatal("remove semantics")
	}
	if _, ok := h.s.Get(a.ID); ok {
		t.Fatal("removed schedule still present")
	}

	// Restore into a fresh scheduler: the baseline hash survives (no
	// spurious build-change fire) and new IDs don't collide.
	h.s.Complete(b.ID, "", "", nil)
	snap := h.s.Snapshot()
	if len(snap) != 1 || snap[0].Spec.ID != b.ID {
		t.Fatalf("snapshot = %+v", snap)
	}
	snap[0].LastBuildHash = "hash-a"

	h2 := newHarness(t, nil)
	h2.s.Restore(snap)
	st, ok := h2.s.Get(b.ID)
	if !ok || st.LastBuildHash != "hash-a" {
		t.Fatalf("restored = %+v ok=%v", st, ok)
	}
	h2.s.Tick() // hash still "hash-a": must not fire
	if got := h2.runs(); len(got) != 0 {
		t.Fatalf("restored schedule re-fired on unchanged hash: %v", got)
	}
	c, _ := h2.s.Add(Spec{Benchmark: "c", System: "s", Every: Duration(time.Minute)})
	if c.ID == b.ID {
		t.Fatalf("restored id counter collided: %q", c.ID)
	}
}

// TestTickFaultInjection: an injected tick fault skips the pass
// entirely; the schedule fires on the next clean tick, never twice.
func TestTickFaultInjection(t *testing.T) {
	rules, err := faultinject.ParseSchedule("cbsched.tick:error:times=2")
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Load(1, rules); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	h := newHarness(t, nil)
	if _, err := h.s.Add(Spec{Benchmark: "bs", System: "sys", Every: Duration(time.Second)}); err != nil {
		t.Fatal(err)
	}
	h.advance(time.Second)
	h.s.Tick() // faulted
	h.s.Tick() // faulted
	if got := h.runs(); len(got) != 0 {
		t.Fatalf("fired through a faulted tick: %v", got)
	}
	h.s.Tick() // clean: fires once
	if got := h.runs(); len(got) != 1 {
		t.Fatalf("runs = %v, want 1", got)
	}
}

func TestMetrics(t *testing.T) {
	reg := telemetry.DefaultRegistry
	firesBefore, _ := reg.Value("benchd_sched_fires_total", "interval")
	supBefore, _ := reg.Value("benchd_sched_overlap_suppressed_total")

	h := newHarness(t, nil)
	st, _ := h.s.Add(Spec{Benchmark: "bs", System: "sys", Every: Duration(time.Second)})
	h.advance(time.Second)
	h.s.Tick()
	h.advance(time.Second)
	h.s.Tick() // suppressed

	if got, _ := reg.Value("benchd_sched_fires_total", "interval"); got != firesBefore+1 {
		t.Errorf("fires delta = %v", got-firesBefore)
	}
	if got, _ := reg.Value("benchd_sched_overlap_suppressed_total"); got != supBefore+1 {
		t.Errorf("suppressed delta = %v", got-supBefore)
	}
	schedules, fires, suppressed := h.s.Counters()
	if schedules != 1 || fires != 1 || suppressed != 1 {
		t.Errorf("counters = %d %d %d", schedules, fires, suppressed)
	}
	_ = st
}

// NoJitter is a Config.Rand that always draws zero, pinning next-run
// times for deterministic tests.
func NoJitter() float64 { return 0 }
