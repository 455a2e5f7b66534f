package service

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fom"
	"repro/internal/perflog"
	"repro/internal/telemetry"
)

// newIngestServer boots a daemon on cfg over a fresh perflog tree and
// install tree, with its logs captured in logs.
func newIngestServer(t *testing.T, cfg Config, logs *lockedBuffer) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	cfg.PerflogRoot = dir + "/perflogs"
	cfg.InstallTree = dir + "/install"
	cfg.Logger = slog.New(slog.NewTextHandler(logs, nil))
	srv, err := New(cfg)
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

// eventually polls cond every millisecond, failing the test if it is
// still false after thirty seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// counterMoved reports whether a counter sample has passed before.
func counterMoved(name string, before float64, labels ...string) func() bool {
	return func() bool {
		v, _ := telemetry.DefaultRegistry.Value(name, labels...)
		return v > before
	}
}

// queryCount is the count field of a 200 answer to url.
func queryCount(t *testing.T, url string) int {
	t.Helper()
	var out struct {
		Count int `json:"count"`
	}
	if code := getJSON(t, url, &out); code != http.StatusOK {
		t.Fatalf("%s: status = %d, want 200", url, code)
	}
	return out.Count
}

// lockedBuffer is a bytes.Buffer a logger and a test can share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func oobEntry(foms map[string]fom.Value) *perflog.Entry {
	return &perflog.Entry{
		Time: time.Date(2023, 7, 7, 10, 0, 0, 0, time.UTC), Benchmark: "bs",
		System: "archer2", Result: "pass", FOMs: foms, Extra: map[string]string{},
	}
}

// TestMaintenanceSyncFaultKeepsQueriesAnswering: queries read no file,
// so a store fault while picking up out-of-band entries reaches no
// client. The maintenance sync logs and counts it, queries keep
// answering 200 from what is indexed, and the next tick ingests the
// file.
func TestMaintenanceSyncFaultKeepsQueriesAnswering(t *testing.T) {
	var logs lockedBuffer
	srv, ts := newIngestServer(t, Config{MaintenanceInterval: 5 * time.Millisecond}, &logs)
	before, _ := telemetry.DefaultRegistry.Value("benchd_ingest_errors_total", "sync")
	loadFaults(t, 1, "perfstore.sync:error:times=1")
	if err := perflog.Append(srv.Store().Root(), "archer2", "bs", oobEntry(map[string]fom.Value{})); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the faulted maintenance sync", counterMoved("benchd_ingest_errors_total", before, "sync"))
	if !strings.Contains(logs.String(), "out-of-band sync failed") {
		t.Errorf("faulted maintenance sync not logged:\n%s", logs.String())
	}
	if code := getJSON(t, ts.URL+"/v1/regressions?fom=x", nil); code != http.StatusOK {
		t.Errorf("regressions after a store fault: status = %d, want 200", code)
	}
	eventually(t, "the next tick to ingest the file", func() bool {
		return queryCount(t, ts.URL+"/v1/query?benchmark=bs") == 1
	})
}

// TestMalformedOutOfBandLineKeepsQueriesAnswering: a line the parser
// refuses, appended out of band, costs that line alone. The maintenance
// sync quarantines it, logs and counts it once, indexes the good line
// before it and the lines after it, and every query keeps answering 200.
func TestMalformedOutOfBandLineKeepsQueriesAnswering(t *testing.T) {
	var logs lockedBuffer
	srv, ts := newIngestServer(t, Config{MaintenanceInterval: 5 * time.Millisecond}, &logs)
	before, _ := telemetry.DefaultRegistry.Value("perfstore_bad_lines_total")
	good := oobEntry(map[string]fom.Value{"l0": {Name: "l0", Value: 1, Unit: "s"}})
	if err := perflog.Append(srv.Store().Root(), "archer2", "bs", good); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, filepath.Join(srv.Store().Root(), "archer2", "bs.log"), "this is not a perflog line\n")
	after := oobEntry(map[string]fom.Value{"l0": {Name: "l0", Value: 2, Unit: "s"}})
	after.Time = after.Time.Add(time.Hour)
	if err := perflog.Append(srv.Store().Root(), "archer2", "bs", after); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the lines after the bad one", func() bool {
		return queryCount(t, ts.URL+"/v1/query?benchmark=bs") == 2
	})
	if v, _ := telemetry.DefaultRegistry.Value("perfstore_bad_lines_total"); v != before+1 {
		t.Errorf("perfstore_bad_lines_total moved by %g, want 1", v-before)
	}
	eventually(t, "the quarantine log line", func() bool {
		return strings.Contains(logs.String(), "perflog line quarantined")
	})
	if n := strings.Count(logs.String(), "perflog line quarantined"); n != 1 {
		t.Errorf("quarantine logged %d times, want once:\n%s", n, logs.String())
	}
	if strings.Contains(logs.String(), "out-of-band sync failed") {
		t.Errorf("a bad line failed the sync:\n%s", logs.String())
	}
	if n := queryCount(t, ts.URL+"/v1/query?fom=l0&agg=mean"); n != 1 {
		t.Errorf("aggregate groups = %d, want 1", n)
	}
	queryCount(t, ts.URL+"/v1/regressions?fom=l0")
}

// TestBadLineCostsOneLineNotLaterAckedRuns: after a bad line lands out
// of band, every run acked through the writer is served once its append
// returns — the commit's gap read quarantines the line and moves past
// it — so acked ⇒ queryable holds for the whole file.
func TestBadLineCostsOneLineNotLaterAckedRuns(t *testing.T) {
	var logs lockedBuffer
	srv, ts := newIngestServer(t, Config{MaintenanceInterval: time.Hour}, &logs)
	ack := func(i int) {
		e := oobEntry(map[string]fom.Value{"l0": {Name: "l0", Value: float64(i), Unit: "s"}})
		e.Time = e.Time.Add(time.Duration(i) * time.Minute)
		if err := srv.writer.Append("archer2", "bs", e); err != nil {
			t.Fatal(err)
		}
	}
	ack(0)
	appendRaw(t, filepath.Join(srv.Store().Root(), "archer2", "bs.log"), "this is not a perflog line\n")
	for i := 1; i <= 3; i++ {
		ack(i)
	}
	if n := queryCount(t, ts.URL+"/v1/query?benchmark=bs"); n != 4 {
		t.Fatalf("/v1/query serves %d acked entries, want 4", n)
	}
	if st := srv.Store().Stats(); st.BadLines != 1 {
		t.Errorf("quarantined %d lines, want 1", st.BadLines)
	}
}

// TestBadLineDoesNotFailBoot: a tree holding a line the parser refuses
// boots. Every other line is served and /healthz lists the quarantined
// line with its file, offset and length.
func TestBadLineDoesNotFailBoot(t *testing.T) {
	dir := t.TempDir()
	root := filepath.Join(dir, "perflogs")
	first := oobEntry(map[string]fom.Value{"l0": {Name: "l0", Value: 1, Unit: "s"}})
	if err := perflog.Append(root, "archer2", "bs", first); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "archer2", "bs.log")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	const junk = "this is not a perflog line\n"
	appendRaw(t, path, junk)
	for i := 1; i <= 3; i++ {
		e := oobEntry(map[string]fom.Value{"l0": {Name: "l0", Value: float64(i), Unit: "s"}})
		e.Time = e.Time.Add(time.Duration(i) * time.Minute)
		if err := perflog.Append(root, "archer2", "bs", e); err != nil {
			t.Fatal(err)
		}
	}
	var logs lockedBuffer
	srv, err := New(Config{PerflogRoot: root, InstallTree: filepath.Join(dir, "install"), Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatalf("boot over a tree with one bad line: %v", err)
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
	if n := queryCount(t, ts.URL+"/v1/query?benchmark=bs"); n != 4 {
		t.Errorf("served %d entries, want 4", n)
	}
	var health struct {
		Storage struct {
			BadLines    int `json:"bad_lines"`
			Quarantined []struct {
				File   string `json:"file"`
				Offset int64  `json:"offset"`
				Length int    `json:"length"`
				Error  string `json:"error"`
			} `json:"quarantined"`
		} `json:"storage"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	q := health.Storage.Quarantined
	if health.Storage.BadLines != 1 || len(q) != 1 || q[0].File != path || q[0].Offset != info.Size() || q[0].Length != len(junk) || q[0].Error == "" {
		t.Fatalf("storage quarantine = %d %+v, want one line at %s@%d, %d bytes", health.Storage.BadLines, q, path, info.Size(), len(junk))
	}
	if !strings.Contains(logs.String(), "perflog line quarantined") {
		t.Errorf("boot did not log the quarantined line:\n%s", logs.String())
	}
}

// appendRaw appends text to a perflog file the way an out-of-band
// writer would, bypassing perflog's renderer.
func appendRaw(t *testing.T, path, text string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(text); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCleanCommitsParseNothing is the count gate for the write path:
// runs that share one perflog file, committed by two workers while
// queries run, enter the store through their commits alone. Not one
// byte is parsed and not one file is looked at after boot, whatever
// the timing, because nothing but the commit puts daemon bytes in the
// store.
func TestCleanCommitsParseNothing(t *testing.T) {
	var logs lockedBuffer
	// No maintenance tick during the test: a tick's sync parses nothing
	// here either, but it does count the files it looks at.
	srv, ts := newIngestServer(t, Config{Workers: 2, QueueDepth: 64, MaintenanceInterval: time.Hour}, &logs)
	boot := srv.Store().Stats()
	const runs, queriesPerRun = 40, 5
	queries := []string{
		"/v1/query?system=archer2&benchmark=babelstream-omp",
		"/v1/query?fom=triad_mbps&agg=mean&group_by=system",
		"/v1/regressions?fom=triad_mbps&window=5",
		"/v1/query?system=archer2&limit=3",
		"/v1/query?fom=copy_mbps&agg=max",
	}
	ids := make([]string, 0, runs)
	for i := 0; i < runs; i++ {
		var v runView
		if code := postJSON(t, ts.URL+"/v1/runs", `{"benchmark":"babelstream-omp","system":"archer2"}`, &v); code != http.StatusAccepted {
			t.Fatalf("submit %d: status = %d", i, code)
		}
		ids = append(ids, v.ID)
		for _, q := range queries[:queriesPerRun] {
			queryCount(t, ts.URL+q)
		}
	}
	for _, id := range ids {
		r, _ := srv.Get(id)
		eventually(t, "run "+id, func() bool {
			v := viewRun(r)
			if v.Status == StatusFailed {
				t.Fatalf("run %s failed: %s", id, v.Error)
			}
			return v.Status == StatusCompleted
		})
	}
	st := srv.Store().Stats()
	if st.Entries != runs {
		t.Errorf("store holds %d entries after %d runs", st.Entries, runs)
	}
	if st.BytesParsed != 0 {
		t.Errorf("store parsed %d bytes after clean commits, want 0", st.BytesParsed)
	}
	if st.FilesScanned != boot.FilesScanned {
		t.Errorf("files scanned moved %d → %d after boot, want no move", boot.FilesScanned, st.FilesScanned)
	}
}

// TestQueryableImpliesDurable holds a run's commit after its write and
// before its fsync. In that window the entry's bytes are in the file,
// and nothing may serve them: no select, aggregate or regression
// answer holds the entry, a maintenance sync waits for the commit, and
// the store parses nothing. Once the commit is released, the entry is
// queryable the moment its run completes.
func TestQueryableImpliesDurable(t *testing.T) {
	var logs lockedBuffer
	srv, ts := newIngestServer(t, Config{Workers: 1}, &logs)
	before, _ := telemetry.DefaultRegistry.Value("faultinject_fired_total", "perflog.written", "delay")
	loadFaults(t, 1, "perflog.written:delay:d=1s:times=1")
	var v runView
	if code := postJSON(t, ts.URL+"/v1/runs", `{"benchmark":"babelstream-omp","system":"archer2"}`, &v); code != http.StatusAccepted {
		t.Fatalf("submit: status = %d", code)
	}
	eventually(t, "the commit to be held", counterMoved("faultinject_fired_total", before, "perflog.written", "delay"))
	if data, err := os.ReadFile(filepath.Join(srv.Store().Root(), "archer2", "babelstream-omp.log")); err != nil || len(data) == 0 {
		t.Fatalf("held commit's bytes not in the file: %d bytes, %v", len(data), err)
	}
	synced := make(chan struct{})
	go func() {
		srv.syncOutOfBand()
		close(synced)
	}()
	for _, q := range []string{
		"/v1/query?system=archer2",
		"/v1/query?fom=triad_mbps&agg=mean",
		"/v1/regressions?fom=triad_mbps",
	} {
		if n := queryCount(t, ts.URL+q); n != 0 {
			t.Errorf("%s answered %d rows while the commit was not durable", q, n)
		}
	}
	select {
	case <-synced:
		t.Error("a maintenance sync ran inside a commit")
	default:
	}
	if n := srv.Store().Stats().BytesParsed; n != 0 {
		t.Errorf("store parsed %d bytes of a commit that was not durable", n)
	}
	r, _ := srv.Get(v.ID)
	if got := viewRun(r).Status; got != StatusRunning {
		t.Fatalf("run is %s: the hold ended before the checks did", got)
	}
	eventually(t, "the run to complete", func() bool { return viewRun(r).Status == StatusCompleted })
	if n := queryCount(t, ts.URL+"/v1/query?system=archer2"); n != 1 {
		t.Errorf("completed run's entry: %d rows, want 1", n)
	}
	<-synced
	if n := srv.Store().Stats().BytesParsed; n != 0 {
		t.Errorf("store parsed %d bytes after the commit", n)
	}
}
