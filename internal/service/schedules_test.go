package service

// Tests for the /v1/schedules surface and the continuous-benchmarking
// loop end to end: schedules fire runs with no client request, their
// completions feed back into scheduler state, and the registry
// survives a daemon reboot via --data-dir.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cbsched"
	"repro/internal/eventbus"
)

// newSchedServer boots a daemon with a fast tick loop and a persistent
// data dir, returning the dirs so a second boot can reuse them.
func newSchedServer(t *testing.T, perflogRoot, dataDir string) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	srv, err := New(Config{
		PerflogRoot:  perflogRoot,
		DataDir:      dataDir,
		InstallTree:  dir + "/install",
		Workers:      2,
		QueueDepth:   16,
		TickInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return srv, ts
}

func deleteReq(t *testing.T, url string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestScheduleValidation: schedules are vetted like run submissions —
// unknown benchmarks or systems, missing triggers, and malformed
// intervals are 400s, never registered.
func TestScheduleValidation(t *testing.T) {
	dir := t.TempDir()
	_, ts := newSchedServer(t, dir+"/perflogs", "")

	for name, body := range map[string]string{
		"unknown benchmark": `{"benchmark":"nope","system":"archer2","every":"1m"}`,
		"unknown system":    `{"benchmark":"babelstream-omp","system":"nope","every":"1m"}`,
		"no trigger":        `{"benchmark":"babelstream-omp","system":"archer2"}`,
		"bad every":         `{"benchmark":"babelstream-omp","system":"archer2","every":"often"}`,
		"negative layout":   `{"benchmark":"babelstream-omp","system":"archer2","every":"1m","num_tasks":-1}`,
		"unknown field":     `{"benchmark":"babelstream-omp","system":"archer2","every":"1m","cron":"* *"}`,
	} {
		if code := postJSON(t, ts.URL+"/v1/schedules", body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, code)
		}
	}
	var list struct {
		Count int `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/v1/schedules", &list); code != http.StatusOK || list.Count != 0 {
		t.Errorf("list after rejects: code=%d count=%d", code, list.Count)
	}
}

// TestScheduleCRUD: create, read, list, delete over HTTP.
func TestScheduleCRUD(t *testing.T) {
	dir := t.TempDir()
	_, ts := newSchedServer(t, dir+"/perflogs", "")

	var created cbsched.Status
	code := postJSON(t, ts.URL+"/v1/schedules",
		`{"name":"nightly","benchmark":"babelstream-omp","system":"archer2","every":"1h"}`, &created)
	if code != http.StatusCreated {
		t.Fatalf("create status = %d", code)
	}
	if created.ID == "" || created.Name != "nightly" || time.Duration(created.Every) != time.Hour {
		t.Fatalf("created = %+v", created)
	}
	if created.NextRunAt.IsZero() {
		t.Error("created schedule has no next_run_at")
	}

	var got cbsched.Status
	if code := getJSON(t, ts.URL+"/v1/schedules/"+created.ID, &got); code != http.StatusOK || got.ID != created.ID {
		t.Fatalf("get: code=%d got=%+v", code, got)
	}
	var list struct {
		Schedules []cbsched.Status `json:"schedules"`
		Count     int              `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/v1/schedules", &list); code != http.StatusOK || list.Count != 1 {
		t.Fatalf("list: code=%d %+v", code, list)
	}

	if code := deleteReq(t, ts.URL+"/v1/schedules/"+created.ID); code != http.StatusNoContent {
		t.Fatalf("delete status = %d", code)
	}
	if code := deleteReq(t, ts.URL+"/v1/schedules/"+created.ID); code != http.StatusNotFound {
		t.Errorf("double delete status = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/schedules/"+created.ID, nil); code != http.StatusNotFound {
		t.Errorf("get after delete status = %d, want 404", code)
	}
}

// TestScheduledRunsFire is the tentpole acceptance: an interval
// schedule produces completed runs with NO client submissions, each
// run's events carry the schedule id, and completions feed back into
// the schedule's visible state.
func TestScheduledRunsFire(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newSchedServer(t, dir+"/perflogs", "")

	sub, err := srv.Bus().Subscribe([]string{eventbus.TypeScheduleFired, eventbus.TypeRunFinished}, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var created cbsched.Status
	code := postJSON(t, ts.URL+"/v1/schedules",
		`{"benchmark":"babelstream-omp","system":"archer2","every":"150ms"}`, &created)
	if code != http.StatusCreated {
		t.Fatalf("create status = %d", code)
	}

	// Two full cycles prove re-arming, not just a single firing.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fired, finished := 0, 0
	for finished < 2 {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("waiting for scheduled events (fired=%d finished=%d): %v", fired, finished, err)
		}
		if ev.Data["schedule_id"] != created.ID {
			t.Fatalf("event %s has schedule_id=%q, want %q", ev.Type, ev.Data["schedule_id"], created.ID)
		}
		switch ev.Type {
		case eventbus.TypeScheduleFired:
			fired++
			if tr := ev.Data["trigger"]; tr != "interval" {
				t.Errorf("trigger = %q, want interval", tr)
			}
		case eventbus.TypeRunFinished:
			finished++
			if ev.Data["status"] != StatusCompleted {
				t.Errorf("scheduled run status = %q", ev.Data["status"])
			}
		}
	}
	if fired < 2 {
		t.Errorf("saw %d schedule.fired for %d finished runs", fired, finished)
	}

	var st cbsched.Status
	if code := getJSON(t, ts.URL+"/v1/schedules/"+created.ID, &st); code != http.StatusOK {
		t.Fatalf("get status = %d", code)
	}
	if st.Fires < 2 || st.LastRunID == "" {
		t.Errorf("schedule state after runs = %+v", st)
	}
	if st.ConsecutiveFailures != 0 {
		t.Errorf("consecutive_failures = %d after successful runs", st.ConsecutiveFailures)
	}

	// The scheduled runs are real runs: listed, completed, ingested.
	var runs struct {
		Runs []runView `json:"runs"`
	}
	if code := getJSON(t, ts.URL+"/v1/runs", &runs); code != http.StatusOK {
		t.Fatalf("list runs status = %d", code)
	}
	if len(runs.Runs) < 2 {
		t.Errorf("scheduled runs listed = %d, want >= 2", len(runs.Runs))
	}

	// /healthz reports the scheduler block.
	var health struct {
		Scheduler struct {
			Running   bool   `json:"running"`
			Schedules int    `json:"schedules"`
			Fires     uint64 `json:"fires"`
		} `json:"scheduler"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if !health.Scheduler.Running || health.Scheduler.Schedules != 1 || health.Scheduler.Fires < 2 {
		t.Errorf("healthz scheduler = %+v", health.Scheduler)
	}
}

// TestOnBuildChangeSchedule: a pure build-change schedule fires once to
// establish its baseline hash, then stays quiet while the build DAG is
// stable.
func TestOnBuildChangeSchedule(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newSchedServer(t, dir+"/perflogs", "")

	sub, err := srv.Bus().Subscribe([]string{eventbus.TypeRunFinished}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var created cbsched.Status
	code := postJSON(t, ts.URL+"/v1/schedules",
		`{"benchmark":"babelstream-omp","system":"archer2","on_build_change":true}`, &created)
	if code != http.StatusCreated {
		t.Fatalf("create status = %d", code)
	}

	// Baseline firing: no recorded hash yet, so the first check fires.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := sub.Next(ctx); err != nil {
		t.Fatalf("baseline build-change run never finished: %v", err)
	}

	// The completed run's build hash becomes the baseline...
	var st cbsched.Status
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/schedules/"+created.ID, &st); code != http.StatusOK {
			t.Fatalf("get status = %d", code)
		}
		if st.LastBuildHash != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("schedule never recorded a build hash baseline")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// ...and with an unchanged DAG the schedule stays quiet: many ticks
	// pass with no second firing.
	quiet, qcancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer qcancel()
	if ev, err := sub.Next(quiet); err == nil {
		t.Errorf("unchanged build hash re-fired the schedule: %+v", ev)
	}
	if code := getJSON(t, ts.URL+"/v1/schedules/"+created.ID, &st); code != http.StatusOK || st.Fires != 1 {
		t.Errorf("fires = %d, want exactly the baseline firing", st.Fires)
	}
}

// TestSchedulePersistence: the registry survives a daemon reboot —
// schedules restore from --data-dir with their build-hash baselines,
// and new registrations never collide with restored IDs.
func TestSchedulePersistence(t *testing.T) {
	root := t.TempDir()
	perflogRoot := filepath.Join(root, "perflogs")
	dataDir := filepath.Join(root, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}

	srv1, ts1 := newSchedServer(t, perflogRoot, dataDir)
	var a, b cbsched.Status
	if code := postJSON(t, ts1.URL+"/v1/schedules",
		`{"name":"hourly","benchmark":"babelstream-omp","system":"archer2","every":"1h"}`, &a); code != http.StatusCreated {
		t.Fatalf("create a = %d", code)
	}
	if code := postJSON(t, ts1.URL+"/v1/schedules",
		`{"name":"on-change","benchmark":"hpgmg-fv","system":"csd3","every":"2h","on_build_change":true}`, &b); code != http.StatusCreated {
		t.Fatalf("create b = %d", code)
	}
	// A deleted schedule must NOT resurrect on reboot.
	var c cbsched.Status
	if code := postJSON(t, ts1.URL+"/v1/schedules",
		`{"benchmark":"babelstream-omp","system":"cosma8","every":"3h"}`, &c); code != http.StatusCreated {
		t.Fatalf("create c = %d", code)
	}
	if code := deleteReq(t, ts1.URL+"/v1/schedules/"+c.ID); code != http.StatusNoContent {
		t.Fatalf("delete c = %d", code)
	}
	if _, err := os.Stat(filepath.Join(dataDir, schedulesFile)); err != nil {
		t.Fatalf("registry file: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}
	ts1.Close()

	// Reboot on the same dirs.
	_, ts2 := newSchedServer(t, perflogRoot, dataDir)
	var list struct {
		Schedules []cbsched.Status `json:"schedules"`
		Count     int              `json:"count"`
	}
	if code := getJSON(t, ts2.URL+"/v1/schedules", &list); code != http.StatusOK {
		t.Fatalf("list after reboot = %d", code)
	}
	if list.Count != 2 {
		t.Fatalf("restored %d schedules, want 2 (deleted one must stay deleted): %+v", list.Count, list.Schedules)
	}
	byID := map[string]cbsched.Status{}
	for _, st := range list.Schedules {
		byID[st.ID] = st
	}
	if got := byID[a.ID]; got.Name != "hourly" || time.Duration(got.Every) != time.Hour {
		t.Errorf("restored a = %+v", got)
	}
	if got := byID[b.ID]; got.Name != "on-change" || !got.OnBuildChange {
		t.Errorf("restored b = %+v", got)
	}
	if !schedulerRunning(t, ts2.URL) {
		t.Error("scheduler not running after reboot")
	}

	// New registrations continue past the restored ID range (a deleted
	// schedule's slot may be reused — it no longer exists — but a live
	// restored ID must never be).
	var d cbsched.Status
	if code := postJSON(t, ts2.URL+"/v1/schedules",
		`{"benchmark":"babelstream-omp","system":"archer2","every":"4h"}`, &d); code != http.StatusCreated {
		t.Fatalf("create d = %d", code)
	}
	if d.ID == a.ID || d.ID == b.ID {
		t.Errorf("new schedule collided with a restored ID: %s", d.ID)
	}
}
