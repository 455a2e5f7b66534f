package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

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

// testObserver builds an Observer over its own registry (so assertions
// see exactly the gauges the test sets) with the sampler loop never
// started — ticks are driven through Sample with an explicit clock.
func testObserver(t *testing.T, dir string, mutate func(*Config)) (*Observer, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := Config{
		Registry:    reg,
		Interval:    time.Second,
		RawCapacity: 64,
		Tiers:       3,
		Factor:      4,
		DataDir:     dir,
		FlushEvery:  -1, // explicit flushes only, unless the test opts in
	}
	if mutate != nil {
		mutate(&cfg)
	}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o, reg
}

func TestSamplerScrapesRegistryAndRuntime(t *testing.T) {
	o, reg := testObserver(t, "", nil)
	g := reg.Gauge("test_depth", "").With()
	c := reg.Counter("test_ops_total", "", "kind")
	g.Set(7)
	c.With("a").Inc()
	if err := o.Sample(t0); err != nil {
		t.Fatal(err)
	}
	if p, ok := o.Latest("test_depth"); !ok || p.Last != 7 {
		t.Fatalf("test_depth latest = %+v, %v", p, ok)
	}
	if _, ok := o.Latest(`test_ops_total{kind="a"}`); !ok {
		t.Fatalf("labelled counter series missing; have %v", o.Names())
	}
	// Runtime stats ride every scrape.
	for _, name := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_cycles_total"} {
		if _, ok := o.Latest(name); !ok {
			t.Errorf("runtime series %s missing", name)
		}
	}
	if st := o.Stats(); st.Samples != 1 || st.Series == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHistoryPersistsAcrossReboot is the acceptance-critical property:
// sample, flush, build a new Observer over the same data dir,
// and the pre-reboot points are served.
func TestHistoryPersistsAcrossReboot(t *testing.T) {
	dir := t.TempDir()
	o, reg := testObserver(t, dir, nil)
	g := reg.Gauge("test_depth", "").With()
	now := t0
	for i := 0; i < 20; i++ {
		g.Set(float64(i))
		if err := o.Sample(now); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Second)
	}
	if err := o.Flush(); err != nil { // the daemon's final flush
		t.Fatal(err)
	}

	o2, _ := testObserver(t, dir, nil)
	pts, step, ok := o2.History("test_depth", time.Time{}, 0)
	if !ok {
		t.Fatalf("rebooted observer lost test_depth; have %v", o2.Names())
	}
	if len(pts) != 20 {
		t.Fatalf("rebooted history has %d raw points, want 20", len(pts))
	}
	if step != time.Second {
		t.Fatalf("step = %v, want 1s", step)
	}
	if pts[0].Last != 0 || pts[19].Last != 19 {
		t.Fatalf("history window [%g, %g], want [0, 19]", pts[0].Last, pts[19].Last)
	}
	// Downsampled tiers survive too (factor 4: 20 raw → 5 tier-1 buckets).
	if tiers, samples, err := LoadHistory(filepath.Join(dir, HistoryFile)); err != nil {
		t.Fatal(err)
	} else if samples != 20 || len(tiers["test_depth"][1]) != 5 {
		t.Fatalf("persisted samples=%d tier1=%d, want 20/5", samples, len(tiers["test_depth"][1]))
	}
}

func TestCorruptHistoryStartsFresh(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, HistoryFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	o, _ := testObserver(t, dir, nil) // must not fail New
	if names := o.Names(); len(names) != 0 {
		t.Fatalf("corrupt history produced series %v", names)
	}
}

func TestHistoryWriteFaultKeepsPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	o, reg := testObserver(t, dir, nil)
	reg.Gauge("test_depth", "").With().Set(1)
	if err := o.Sample(t0); err != nil {
		t.Fatal(err)
	}
	if err := o.saveHistory(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, HistoryFile))
	if err != nil {
		t.Fatal(err)
	}
	loadFaults(t, 1, "obs.historywrite:error:times=1")
	if err := o.Sample(t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := o.saveHistory(); err == nil {
		t.Fatal("injected history-write fault not surfaced")
	}
	after, err := os.ReadFile(filepath.Join(dir, HistoryFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed flush modified the on-disk snapshot")
	}
	// Next flush (fault exhausted) succeeds.
	if err := o.saveHistory(); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFaultSkipsTickWithoutStateChange(t *testing.T) {
	o, reg := testObserver(t, "", nil)
	reg.Gauge("test_depth", "").With().Set(1)
	loadFaults(t, 1, "obs.sample:error:times=1")
	if err := o.Sample(t0); err == nil {
		t.Fatal("injected sample fault not surfaced")
	}
	if st := o.Stats(); st.Samples != 0 || st.Series != 0 {
		t.Fatalf("failed tick mutated state: %+v", st)
	}
	if err := o.Sample(t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.Samples != 1 {
		t.Fatalf("recovery tick not recorded: %+v", st)
	}
}

// alertHarness arms one always-firing threshold rule and collects the
// events the observer publishes.
type alertHarness struct {
	events []string // "type reason" lines, in publish order
	data   []map[string]string
}

func (h *alertHarness) publish(typ string, data map[string]string) {
	h.events = append(h.events, typ)
	h.data = append(h.data, data)
}

func TestAlertLifecyclePublishesAndProfiles(t *testing.T) {
	h := &alertHarness{}
	o, reg := testObserver(t, t.TempDir(), func(c *Config) {
		c.Publish = h.publish
		c.ProfileCooldown = time.Millisecond
	})
	g := reg.Gauge("test_depth", "").With()
	st, err := o.AddRule(Rule{Metric: "test_depth", Kind: KindThreshold, Op: OpGT, Value: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != StateOK {
		t.Fatalf("new rule status = %+v", st)
	}

	now := t0
	g.Set(5)
	o.Sample(now) // below threshold: nothing
	if len(h.events) != 0 {
		t.Fatalf("events before breach: %v", h.events)
	}
	g.Set(50)
	now = now.Add(time.Second)
	o.Sample(now) // breach, For=0: fires with profiles attached
	if len(h.events) != 1 || h.events[0] != EventFired {
		t.Fatalf("events after breach = %v", h.events)
	}
	if h.data[0]["alert_id"] != st.ID || h.data[0]["metric"] != "test_depth" {
		t.Fatalf("fired payload = %v", h.data[0])
	}
	if h.data[0]["profile_0"] == "" {
		t.Fatalf("fired event carries no profile id: %v", h.data[0])
	}
	profs := o.Profiles()
	if len(profs) != 2 { // heap + goroutine
		t.Fatalf("%d profiles captured, want 2", len(profs))
	}
	info, data, err := o.Profile(profs[0].ID)
	if err != nil || len(data) == 0 || info.AlertID != st.ID {
		t.Fatalf("profile fetch: info=%+v len=%d err=%v", info, len(data), err)
	}

	now = now.Add(time.Second)
	o.Sample(now) // still breaching: no duplicate fire
	if len(h.events) != 1 {
		t.Fatalf("steady firing republished: %v", h.events)
	}
	g.Set(1)
	now = now.Add(time.Second)
	o.Sample(now) // recovered: resolves once
	if len(h.events) != 2 || h.events[1] != EventResolved {
		t.Fatalf("events after recovery = %v", h.events)
	}
	if h.data[1]["reason"] != ResolveRecovered {
		t.Fatalf("resolve reason = %q", h.data[1]["reason"])
	}
}

func TestProfileCooldownAndEviction(t *testing.T) {
	o, _ := testObserver(t, "", func(c *Config) {
		c.ProfileCooldown = time.Hour
		c.ProfileLimit = 3
	})
	ids, err := o.prof.capture(t0, "alert-1", "m")
	if err != nil || len(ids) != 2 {
		t.Fatalf("first capture: ids=%v err=%v", ids, err)
	}
	// Within cooldown: skipped silently.
	ids, err = o.prof.capture(t0.Add(time.Minute), "alert-1", "m")
	if err != nil || ids != nil {
		t.Fatalf("cooldown capture: ids=%v err=%v", ids, err)
	}
	// Past cooldown: captures, then evicts down to the limit.
	ids, err = o.prof.capture(t0.Add(2*time.Hour), "alert-1", "m")
	if err != nil || len(ids) != 2 {
		t.Fatalf("post-cooldown capture: ids=%v err=%v", ids, err)
	}
	profs := o.Profiles()
	if len(profs) != 3 {
		t.Fatalf("retained %d profiles, want limit 3", len(profs))
	}
	if profs[0].ID >= profs[2].ID {
		t.Fatalf("eviction order wrong: %v", profs)
	}
}

func TestProfilesPersistAcrossReboot(t *testing.T) {
	dir := t.TempDir()
	o, _ := testObserver(t, dir, nil)
	if _, err := o.prof.capture(t0, "alert-1", "m"); err != nil {
		t.Fatal(err)
	}
	want := o.Profiles()
	o2, _ := testObserver(t, dir, nil)
	got := o2.Profiles()
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("rebooted profiles = %d, want %d", len(got), len(want))
	}
	if _, data, err := o2.Profile(got[0].ID); err != nil || len(data) == 0 {
		t.Fatalf("rebooted profile unreadable: %v", err)
	}
	// Fresh captures continue the id sequence instead of colliding.
	ids, err := o2.prof.capture(t0.Add(time.Hour), "alert-2", "m")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if id == got[0].ID || !strings.HasPrefix(id, "prof-") {
			t.Fatalf("post-reboot id %q collides or malformed", id)
		}
	}
}

func TestProfileCaptureFaultDoesNotFailAlert(t *testing.T) {
	h := &alertHarness{}
	o, reg := testObserver(t, "", func(c *Config) { c.Publish = h.publish })
	reg.Gauge("test_depth", "").With().Set(99)
	if _, err := o.AddRule(Rule{Metric: "test_depth", Kind: KindThreshold, Op: OpGT, Value: 1}); err != nil {
		t.Fatal(err)
	}
	loadFaults(t, 1, "obs.profilecapture:error:times=2") // both kinds fail
	o.Sample(t0)
	if len(h.events) != 1 || h.events[0] != EventFired {
		t.Fatalf("alert did not fire through capture failure: %v", h.events)
	}
	if len(o.Profiles()) != 0 {
		t.Fatal("failed captures left artifacts")
	}
}

func TestRemoveFiringRulePublishesResolve(t *testing.T) {
	h := &alertHarness{}
	o, reg := testObserver(t, "", func(c *Config) { c.Publish = h.publish })
	reg.Gauge("test_depth", "").With().Set(99)
	st, _ := o.AddRule(Rule{Metric: "test_depth", Kind: KindThreshold, Op: OpGT, Value: 1})
	o.Sample(t0)
	if !o.RemoveRule(st.ID) {
		t.Fatal("remove failed")
	}
	if len(h.events) != 2 || h.events[1] != EventResolved || h.data[1]["reason"] != ResolveDeleted {
		t.Fatalf("events = %v, data = %v", h.events, h.data)
	}
	if o.RemoveRule(st.ID) {
		t.Fatal("double remove succeeded")
	}
}

func TestResolveFiringOnShutdown(t *testing.T) {
	h := &alertHarness{}
	o, reg := testObserver(t, "", func(c *Config) { c.Publish = h.publish })
	reg.Gauge("test_depth", "").With().Set(99)
	o.AddRule(Rule{Metric: "test_depth", Kind: KindThreshold, Op: OpGT, Value: 1})
	o.AddRule(Rule{Metric: "absent_metric", Kind: KindAbsence})
	o.Sample(t0)
	if n := o.ResolveFiring(ResolveShutdown); n != 2 {
		t.Fatalf("resolved %d rules, want 2", n)
	}
	resolves := 0
	for i, typ := range h.events {
		if typ == EventResolved {
			resolves++
			if h.data[i]["reason"] != ResolveShutdown {
				t.Fatalf("shutdown resolve reason = %q", h.data[i]["reason"])
			}
		}
	}
	if resolves != 2 {
		t.Fatalf("%d resolve events, want 2", resolves)
	}
	if n := o.ResolveFiring(ResolveShutdown); n != 0 {
		t.Fatalf("second ResolveFiring resolved %d", n)
	}
}

func TestRestoreRulesPreservesIDsAndCounter(t *testing.T) {
	o, _ := testObserver(t, "", nil)
	o.RestoreRules([]Rule{
		{ID: "alert-000007", Metric: "a", Kind: KindAbsence},
		{ID: "alert-000003", Metric: "b", Kind: KindThreshold, Op: OpGT, Value: 1},
		{ID: "bogus", Metric: "", Kind: "nope"}, // invalid: dropped
	})
	rules := o.Rules()
	if len(rules) != 2 {
		t.Fatalf("restored %d rules, want 2", len(rules))
	}
	st, err := o.AddRule(Rule{Metric: "c", Kind: KindAbsence})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "alert-000008" {
		t.Fatalf("post-restore id = %s, want alert-000008", st.ID)
	}
}
