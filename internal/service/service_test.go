package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fom"
	"repro/internal/perflog"
	"repro/internal/telemetry"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	srv, err := New(Config{
		PerflogRoot:    dir + "/perflogs",
		InstallTree:    dir + "/install",
		Workers:        2,
		QueueDepth:     8,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode
}

// TestE2ERunQueryRegress is the acceptance path: submit a BabelStream
// run, poll it to completion, read its Triad FOM back through
// /v1/query, and get a well-formed /v1/regressions response.
func TestE2ERunQueryRegress(t *testing.T) {
	_, ts := newTestServer(t)

	var submitted runView
	code := postJSON(t, ts.URL+"/v1/runs",
		`{"benchmark":"babelstream-omp","system":"archer2"}`, &submitted)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if submitted.ID == "" || submitted.Status != StatusQueued {
		t.Fatalf("submitted = %+v", submitted)
	}

	// Poll to completion.
	var final runRef
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("run %s did not finish: %+v", submitted.ID, final)
		}
		if code := getJSON(t, ts.URL+"/v1/runs/"+submitted.ID, &final); code != http.StatusOK {
			t.Fatalf("poll status = %d", code)
		}
		if final.Status == StatusCompleted || final.Status == StatusFailed {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if final.Status != StatusCompleted {
		t.Fatalf("run failed: %+v", final)
	}
	if final.Entry == nil || final.Entry.Result != "pass" {
		t.Fatalf("entry = %+v", final.Entry)
	}
	if final.Entry.FOMs["triad_mbps"].Value <= 0 {
		t.Fatalf("triad FOM = %+v", final.Entry.FOMs)
	}

	// The FOM is queryable from the store.
	var q struct {
		Entries []entryView `json:"entries"`
		Count   int         `json:"count"`
	}
	url := ts.URL + "/v1/query?benchmark=babelstream-omp&system=archer2&fom=triad_mbps&result=pass"
	if code := getJSON(t, url, &q); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if q.Count != 1 || q.Entries[0].FOMs["triad_mbps"].Value != final.Entry.FOMs["triad_mbps"].Value {
		t.Fatalf("query = %+v", q)
	}

	// Aggregates over the same data.
	var aggs struct {
		Aggregates []struct {
			Group string  `json:"group"`
			Count int     `json:"count"`
			Mean  float64 `json:"mean"`
		} `json:"aggregates"`
	}
	url = ts.URL + "/v1/query?fom=triad_mbps&agg=mean&group_by=system,benchmark"
	if code := getJSON(t, url, &aggs); code != http.StatusOK {
		t.Fatalf("agg status = %d", code)
	}
	if len(aggs.Aggregates) != 1 || aggs.Aggregates[0].Group != "archer2/babelstream-omp" || aggs.Aggregates[0].Mean <= 0 {
		t.Fatalf("aggregates = %+v", aggs)
	}

	// A well-formed regressions response (one run: nothing to judge yet,
	// but the shape and knobs are there).
	var reg struct {
		Regressions []json.RawMessage `json:"regressions"`
		Count       int               `json:"count"`
		Flagged     int               `json:"flagged"`
		Tolerance   float64           `json:"tolerance"`
		Window      int               `json:"window"`
	}
	url = ts.URL + "/v1/regressions?fom=triad_mbps&tolerance=0.15&window=5"
	if code := getJSON(t, url, &reg); code != http.StatusOK {
		t.Fatalf("regressions status = %d", code)
	}
	if reg.Tolerance != 0.15 || reg.Window != 5 || reg.Flagged != 0 {
		t.Fatalf("regressions = %+v", reg)
	}

	// The run also shows up in the listing and in health.
	var list struct {
		Count int `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/v1/runs", &list); code != http.StatusOK || list.Count != 1 {
		t.Fatalf("list = %+v (%d)", list, code)
	}
	var health struct {
		Status  string `json:"status"`
		Entries int    `json:"entries"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("health status = %d", code)
	}
	if health.Status != "ok" || health.Entries != 1 {
		t.Fatalf("health = %+v", health)
	}
}

func TestRegressionsFlagsDropAcrossDaemonAndCLIEntries(t *testing.T) {
	// Entries written to the tree by out-of-band CLI runs are visible to
	// the daemon's query path after its incremental re-sync, and a drop
	// is flagged with the shared tolerance rule.
	srv, ts := newTestServer(t)
	t0 := time.Date(2023, 7, 7, 10, 0, 0, 0, time.UTC)
	for i, v := range []float64{100, 101, 80} {
		e := &perflog.Entry{
			Time: t0.Add(time.Duration(i) * time.Hour), Benchmark: "hpgmg-fv",
			System: "archer2", Partition: "compute", Environ: "gcc",
			Spec: "hpgmg%gcc", JobID: i + 1, Result: "pass",
			FOMs:  map[string]fom.Value{"l0": {Name: "l0", Value: v, Unit: "MDOF/s"}},
			Extra: map[string]string{},
		}
		if err := perflog.Append(srv.Store().Root(), "archer2", "hpgmg-fv", e); err != nil {
			t.Fatal(err)
		}
	}
	var reg struct {
		Regressions []struct {
			Group   string `json:"group"`
			Flagged bool   `json:"flagged"`
		} `json:"regressions"`
		Flagged int `json:"flagged"`
	}
	if code := getJSON(t, ts.URL+"/v1/regressions?fom=l0", &reg); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if reg.Flagged != 1 || len(reg.Regressions) != 1 || !reg.Regressions[0].Flagged {
		t.Fatalf("regressions = %+v", reg)
	}
	if reg.Regressions[0].Group != "archer2/hpgmg-fv" {
		t.Errorf("group = %q", reg.Regressions[0].Group)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"bad json", `{"benchmark": `},
		{"unknown field", `{"benchmark":"babelstream-omp","system":"archer2","nope":1}`},
		{"missing fields", `{}`},
		{"unknown benchmark", `{"benchmark":"linpack","system":"archer2"}`},
		{"unknown system", `{"benchmark":"babelstream-omp","system":"summit"}`},
		{"bad spec", `{"benchmark":"babelstream-omp","system":"archer2","spec":"@bad"}`},
		{"negative num_tasks", `{"benchmark":"babelstream-omp","system":"archer2","num_tasks":-4}`},
		{"negative tasks_per_node", `{"benchmark":"babelstream-omp","system":"archer2","tasks_per_node":-1}`},
		{"negative cpus_per_task", `{"benchmark":"babelstream-omp","system":"archer2","cpus_per_task":-8}`},
	}
	for _, tc := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, ts.URL+"/v1/runs", tc.body, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d", tc.name, code)
		}
		if e.Error == "" {
			t.Errorf("%s: no JSON error body", tc.name)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{
		"?bogus=1",
		"?limit=-1",
		"?since=yesterday",
		"?agg=mean", // needs fom
		"?agg=median&fom=x",
	} {
		var e struct {
			Error string `json:"error"`
		}
		if code := getJSON(t, ts.URL+"/v1/query"+q, &e); code != http.StatusBadRequest {
			t.Errorf("query %q: status = %d", q, code)
		}
		if e.Error == "" {
			t.Errorf("query %q: no JSON error body", q)
		}
	}
	for _, q := range []string{
		"", // fom required
		"?fom=l0&tolerance=abc",
		"?fom=l0&window=-2",
	} {
		if code := getJSON(t, ts.URL+"/v1/regressions"+q, nil); code != http.StatusBadRequest {
			t.Errorf("regressions %q: status = %d", q, code)
		}
	}
}

func TestUnknownRunIs404(t *testing.T) {
	_, ts := newTestServer(t)
	var e struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, ts.URL+"/v1/runs/run-999999", &e); code != http.StatusNotFound {
		t.Errorf("status = %d", code)
	}
	if !strings.Contains(e.Error, "run-999999") {
		t.Errorf("error = %q", e.Error)
	}
}

func TestQueueFullRejectsWith503(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{
		PerflogRoot: dir + "/perflogs",
		InstallTree: dir + "/install",
		Workers:     1,
		QueueDepth:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	// Fill the queue faster than one worker drains it. Some submissions
	// must be rejected with the queue-full error; none may block.
	var rejected int
	for i := 0; i < 20; i++ {
		_, err := srv.Submit(SubmitRequest{Benchmark: "babelstream-omp", System: "archer2"})
		if err != nil {
			if !strings.Contains(err.Error(), "queue is full") {
				t.Fatalf("unexpected error: %v", err)
			}
			rejected++
		}
	}
	if rejected == 0 {
		t.Error("20 rapid submissions on a depth-1 queue never hit queue-full")
	}
}

func TestShutdownDrainsQueuedRuns(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{
		PerflogRoot: dir + "/perflogs",
		InstallTree: dir + "/install",
		Workers:     1,
		QueueDepth:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		run, err := srv.Submit(SubmitRequest{Benchmark: "babelstream-omp", System: "archer2"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, run.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Every accepted run executed before shutdown returned.
	for _, id := range ids {
		run, ok := srv.Get(id)
		if !ok {
			t.Fatalf("run %s lost", id)
		}
		if v := viewRun(run); v.Status != StatusCompleted {
			t.Errorf("run %s = %+v", id, v)
		}
	}
	// And submissions after shutdown are refused.
	if _, err := srv.Submit(SubmitRequest{Benchmark: "babelstream-omp", System: "archer2"}); err == nil {
		t.Error("submit after shutdown accepted")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewBufferString("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/query status = %d", resp.StatusCode)
	}
}

func TestHealthzShape(t *testing.T) {
	_, ts := newTestServer(t)
	var h map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, key := range []string{"status", "entries", "systems", "queued", "workers", "perflog_root"} {
		if _, ok := h[key]; !ok {
			t.Errorf("healthz missing %q: %v", key, h)
		}
	}
}

func TestFailedRunIsReported(t *testing.T) {
	// Spec syntax is validated at submit, but concretization happens in
	// the pipeline: an unknown package passes Submit and must surface as
	// a failed run with its error, not vanish.
	srv, err := New(Config{
		PerflogRoot: t.TempDir() + "/perflogs",
		InstallTree: t.TempDir() + "/install",
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	run, err := srv.Submit(SubmitRequest{Benchmark: "babelstream-omp", System: "archer2", Spec: "no-such-package"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		v := viewRun(run)
		if v.Status == StatusFailed {
			if v.Error == "" {
				t.Error("failed run carries no error")
			}
			break
		}
		if v.Status == StatusCompleted {
			t.Fatalf("expected failure, got %+v", v)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run stuck: %+v", v)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// submitAndWait pushes one run through the HTTP API and polls it to a
// terminal status.
func submitAndWait(t *testing.T, ts *httptest.Server, body string) runRef {
	t.Helper()
	var submitted runView
	if code := postJSON(t, ts.URL+"/v1/runs", body, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v runRef
		if code := getJSON(t, ts.URL+"/v1/runs/"+submitted.ID, &v); code != http.StatusOK {
			t.Fatalf("poll status = %d", code)
		}
		if v.Status == StatusCompleted || v.Status == StatusFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck: %+v", submitted.ID, v)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// sampleValue finds the exposition line for one series and returns its
// value, failing the test if the series is absent.
func sampleValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		return v
	}
	t.Errorf("series %s not found in /metrics", series)
	return 0
}

// TestMetricsEndpoint scrapes /metrics after a completed run and checks
// the exposition output carries both the daemon's HTTP families and the
// runner's stage histogram with observed samples.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	if v := submitAndWait(t, ts, `{"benchmark":"babelstream-omp","system":"archer2"}`); v.Status != StatusCompleted {
		t.Fatalf("run = %+v", v)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Families from every instrumented layer are present in one scrape.
	for _, want := range []string{
		"# TYPE benchd_http_requests_total counter",
		"# TYPE benchd_runs_total counter",
		"# TYPE benchd_queue_depth gauge",
		"# TYPE runner_stage_seconds histogram",
		"# TYPE buildsys_installs_total counter",
		"# TYPE perfstore_ingest_entries_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
	// The run left samples behind, not just empty families. Counters are
	// process-global, so assert >= 1 rather than exact counts (other
	// tests in this package complete runs too).
	for _, series := range []string{
		`benchd_runs_total{status="completed"}`,
		`runner_stage_seconds_count{stage="build"}`,
		`benchd_http_requests_total{route="/v1/runs",method="POST",code="202"}`,
	} {
		if v := sampleValue(t, body, series); v < 1 {
			t.Errorf("sample %s = %v, want >= 1", series, v)
		}
	}
	// Every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("non-numeric sample value in %q", line)
		}
	}
}

// TestTraceEndpoints verifies a finished run's span tree is retrievable
// under its run id, and the listing summarizes it.
func TestTraceEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	v := submitAndWait(t, ts, `{"benchmark":"babelstream-omp","system":"archer2"}`)
	if v.Status != StatusCompleted {
		t.Fatalf("run = %+v", v)
	}

	var trace struct {
		ID   string             `json:"id"`
		Root telemetry.SpanView `json:"root"`
	}
	if code := getJSON(t, ts.URL+"/v1/traces/"+v.ID, &trace); code != http.StatusOK {
		t.Fatalf("trace status = %d", code)
	}
	if trace.ID != v.ID || trace.Root.Name != "benchd.run" {
		t.Fatalf("trace = %+v", trace)
	}
	if trace.Root.Attrs["run_id"] != v.ID {
		t.Errorf("root attrs = %v", trace.Root.Attrs)
	}
	// The pipeline stages hang off the runner's "run" span.
	stages := map[string]bool{}
	var walk func(telemetry.SpanView)
	walk = func(sv telemetry.SpanView) {
		stages[sv.Name] = true
		for _, c := range sv.Children {
			walk(c)
		}
	}
	walk(trace.Root)
	for _, want := range []string{"run", "concretize", "build", "schedule", "extract"} {
		if !stages[want] {
			t.Errorf("trace missing stage span %q (got %v)", want, stages)
		}
	}

	var list struct {
		Traces []struct {
			ID    string `json:"id"`
			Name  string `json:"name"`
			Spans int    `json:"spans"`
		} `json:"traces"`
		Count int `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/v1/traces", &list); code != http.StatusOK {
		t.Fatalf("list status = %d", code)
	}
	if list.Count != 1 || list.Traces[0].ID != v.ID || list.Traces[0].Spans < 5 {
		t.Fatalf("list = %+v", list)
	}

	var e struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, ts.URL+"/v1/traces/run-999999", &e); code != http.StatusNotFound || e.Error == "" {
		t.Errorf("missing trace: code = %d, error = %q", code, e.Error)
	}
}

// TestPprofGating: profiling endpoints exist only when opted in.
func TestPprofGating(t *testing.T) {
	_, ts := newTestServer(t) // EnablePprof off
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status = %d", resp.StatusCode)
	}

	dir := t.TempDir()
	srv, err := New(Config{
		PerflogRoot: dir + "/perflogs",
		InstallTree: dir + "/install",
		EnablePprof: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv.Handler())
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	resp, err = http.Get(ts2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with opt-in: status = %d", resp.StatusCode)
	}
	// The API routes still work through the pprof-wrapping mux.
	if code := getJSON(t, ts2.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz through pprof mux: status = %d", code)
	}
}

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

func TestInjectedSubmitFaultIs503WithRetryAfter(t *testing.T) {
	_, ts := newTestServer(t)
	loadFaults(t, 1, "service.submit:error:times=1")
	body := `{"benchmark": "babelstream-omp", "system": "archer2"}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After hint")
	}
	// The fault was times=1: a client that honours the hint succeeds.
	if code := postJSON(t, ts.URL+"/v1/runs", body, nil); code != http.StatusAccepted {
		t.Errorf("retry after injected fault: status = %d, want 202", code)
	}
}

func TestTransientStoreSyncFaultIs503(t *testing.T) {
	srv, ts := newTestServer(t)
	// The query path only re-syncs files that exist; seed one.
	e := &perflog.Entry{
		Time: time.Date(2023, 7, 7, 10, 0, 0, 0, time.UTC), Benchmark: "bs",
		System: "archer2", Result: "pass",
		FOMs: map[string]fom.Value{}, Extra: map[string]string{},
	}
	if err := perflog.Append(srv.Store().Root(), e.System, e.Benchmark, e); err != nil {
		t.Fatal(err)
	}
	loadFaults(t, 1, "perfstore.sync:error:times=1")
	resp, err := http.Get(ts.URL + "/v1/query?benchmark=bs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during store fault: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After hint")
	}
	var out struct {
		Count int `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/v1/query?benchmark=bs", &out); code != http.StatusOK {
		t.Fatalf("query after fault cleared: status = %d, want 200", code)
	}
	if out.Count != 1 {
		t.Errorf("entries after recovery = %d, want 1", out.Count)
	}
}
