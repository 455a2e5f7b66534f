package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestWritePathGroupCommitDedup drives real runs through the daemon and
// proves the group-commit wiring end to end: entries reach the store
// through AddBatch (zero bytes parsed — the worker's reconciliation
// SyncFile never re-reads commit-durable bytes, so nothing is fsynced
// or parsed twice), the commit counter moves, and /metrics exposes the
// write-path families.
func TestWritePathGroupCommitDedup(t *testing.T) {
	commitsBefore, _ := telemetry.DefaultRegistry.Value("perflog_commits_total", "ok")

	srv, ts := newTestServer(t)

	const runs = 3
	ids := make([]string, 0, runs)
	for i := 0; i < runs; i++ {
		var submitted runView
		if code := postJSON(t, ts.URL+"/v1/runs",
			`{"benchmark":"babelstream-omp","system":"archer2"}`, &submitted); code != http.StatusAccepted {
			t.Fatalf("submit status = %d", code)
		}
		ids = append(ids, submitted.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range ids {
		for {
			if time.Now().After(deadline) {
				t.Fatalf("run %s did not finish", id)
			}
			var v runView
			if code := getJSON(t, ts.URL+"/v1/runs/"+id, &v); code != http.StatusOK {
				t.Fatalf("poll status = %d", code)
			}
			if v.Status == StatusCompleted {
				break
			}
			if v.Status == StatusFailed {
				t.Fatalf("run %s failed: %+v", id, v)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Every entry arrived pre-parsed via the commit notification: the
	// store indexed all runs without reading a single byte back.
	st := srv.store.Stats()
	if st.EntriesAdded < runs {
		t.Fatalf("store added %d entries, want >= %d", st.EntriesAdded, runs)
	}
	if st.BytesParsed != 0 {
		t.Fatalf("store parsed %d bytes; commit ingest should make every sync a no-op", st.BytesParsed)
	}

	commitsAfter, ok := telemetry.DefaultRegistry.Value("perflog_commits_total", "ok")
	if !ok || commitsAfter-commitsBefore < 1 {
		t.Fatalf("perflog_commits_total{ok} moved %g, want >= 1", commitsAfter-commitsBefore)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`perflog_commits_total{status="ok"}`,
		"benchd_ingest_batch_size_count",
		"perflog_commit_entries_count",
		"perflog_fsync_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
	if v := sampleValue(t, body, "benchd_ingest_batch_size_count"); v < 1 {
		t.Errorf("benchd_ingest_batch_size_count = %g, want >= 1", v)
	}
}
