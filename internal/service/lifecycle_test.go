package service

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cbsched"
	"repro/internal/eventbus"
	"repro/internal/obs"
	"repro/internal/perflog"
)

// TestShutdownFlushesWriter: when the drain finishes, Shutdown walks
// its one sequence to the end, sealing the head on the way.
func TestShutdownFlushesWriter(t *testing.T) { testShutdownSequence(t, true) }

// TestShutdownDeadlineClosesWriter: when ctx ends before the drain,
// Shutdown walks the same sequence, skipping only the seal, and returns
// ctx's error.
func TestShutdownDeadlineClosesWriter(t *testing.T) { testShutdownSequence(t, false) }

// testShutdownSequence walks Shutdown's one sequence for one outcome of
// the drain. An entry waits in the writer under an hour-long commit
// window and an alert is firing. Either way the writer closes with the
// entry committed, the history file is flushed, every alert.fired is
// matched by an alert.resolved before the one server.shutdown, the bus
// is closed, and a second Shutdown does nothing. Only a finished drain
// seals the head.
func testShutdownSequence(t *testing.T, drained bool) {
	dir := t.TempDir()
	var logs lockedBuffer
	srv, err := New(Config{
		PerflogRoot:       dir + "/perflogs",
		DataDir:           dir + "/data",
		InstallTree:       dir + "/install",
		Workers:           1,
		QueueDepth:        4,
		CommitInterval:    time.Hour, // nothing commits until the writer closes
		SampleInterval:    time.Hour, // the test samples by hand
		HistoryFlushEvery: -1,        // only the final flush writes history
		ProfileCooldown:   time.Hour,
		Logger:            slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := srv.Bus().Subscribe(nil, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.obs.AddRule(obs.Rule{
		Metric: "benchd_queue_depth", Kind: obs.KindThreshold, Op: obs.OpGT, Value: -1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.obs.Sample(time.Now()); err != nil { // the rule fires
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := srv.writer
	acked := make(chan error, 1)
	if drained {
		// The workers are idle, so the drain finishes; the append
		// commits when the writer closes.
		go func() { acked <- w.Append("archer2", "babelstream-omp", testEntry()) }()
	} else {
		// A worker blocked in the commit window keeps the drain from
		// finishing, and an expired ctx takes the deadline.
		if _, err := srv.Submit(SubmitRequest{Benchmark: "babelstream-omp", System: "archer2"}); err != nil {
			t.Fatal(err)
		}
		expired, cancel := context.WithCancel(ctx)
		cancel()
		ctx = expired
	}
	eventually(t, "an entry pending in the writer", func() bool { n, _ := w.Pending(); return n > 0 })

	err = srv.Shutdown(ctx)
	if drained && err != nil || !drained && !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown = %v", err)
	}
	if drained {
		if err := <-acked; err != nil {
			t.Fatalf("pending append not committed by shutdown: %v", err)
		}
	}
	// A deadline leaves the blocked worker running past Shutdown;
	// let it finish before reading what it leaves behind.
	srv.wg.Wait()

	// The writer is closed, after committing the pending entry.
	if err := w.Append("archer2", "babelstream-omp", testEntry()); !errors.Is(err, perflog.ErrWriterClosed) {
		t.Fatalf("append after shutdown = %v, want ErrWriterClosed", err)
	}
	if entries := wholeTree(t, dir+"/perflogs"); len(entries) != 1 {
		t.Fatalf("perflog tree after shutdown: %d entries, want 1", len(entries))
	}
	// The history is flushed.
	if _, samples, err := obs.LoadHistory(filepath.Join(dir, "data", obs.HistoryFile)); err != nil || samples != 1 {
		t.Fatalf("history after shutdown: %d samples, err %v; want 1", samples, err)
	}

	// Every fire is resolved before the one terminal event, which
	// is the last; only the drained case seals.
	var seq []string
	open, sealed := 0, false
	for {
		ev, err := sub.Next(context.Background())
		if err != nil {
			break // the bus is closed and the ring is drained
		}
		seq = append(seq, ev.Type)
		switch ev.Type {
		case eventbus.TypeAlertFired:
			open++
		case eventbus.TypeAlertResolved:
			open--
			if r := ev.Data["reason"]; r != obs.ResolveShutdown {
				t.Errorf("resolve reason = %q, want %q", r, obs.ResolveShutdown)
			}
		case eventbus.TypeStoreSealed:
			sealed = ev.Data["reason"] == "shutdown"
		case eventbus.TypeServerShutdown:
			if open != 0 {
				t.Errorf("%d alerts still firing at server.shutdown: %v", open, seq)
			}
		}
	}
	if n := strings.Count(strings.Join(seq, " "), eventbus.TypeServerShutdown); n != 1 || seq[len(seq)-1] != eventbus.TypeServerShutdown {
		t.Fatalf("events = %v, want one server.shutdown, last", seq)
	}
	if !strings.Contains(strings.Join(seq, " "), eventbus.TypeAlertFired) {
		t.Fatalf("events = %v, want an alert.fired", seq)
	}
	if segs := srv.Store().Stats().SealedSegments; sealed != drained || (segs == 1) != drained {
		t.Fatalf("store.sealed published = %v, sealed segments = %d; drained = %v", sealed, segs, drained)
	}
	if _, err := srv.Bus().Subscribe(nil, 1); !errors.Is(err, eventbus.ErrClosed) {
		t.Fatalf("subscribe after shutdown = %v, want ErrClosed", err)
	}

	// A second Shutdown repeats no step: it publishes and logs
	// nothing and returns the first call's result.
	lastID, logged := srv.Bus().LastID(), logs.String()
	if again := srv.Shutdown(context.Background()); again != err {
		t.Fatalf("second shutdown = %v, want %v", again, err)
	}
	if srv.Bus().LastID() != lastID || logs.String() != logged {
		t.Fatalf("second shutdown did work: last id %d -> %d, logged %q",
			lastID, srv.Bus().LastID(), strings.TrimPrefix(logs.String(), logged))
	}
}

func testEntry() *perflog.Entry {
	return &perflog.Entry{
		Time: time.Now().UTC(), Benchmark: "babelstream-omp",
		System: "archer2", Result: "pass",
	}
}

// TestLifecycleTickLoopFiresSchedules: with no client request, a 10 ms
// schedule fires from the daemon's own tick loop, and /healthz reports
// the loop running while the daemon serves and stopped after Shutdown.
// A degraded boot never starts it (TestTieredDegradedReadOnly).
func TestLifecycleTickLoopFiresSchedules(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{
		PerflogRoot:  dir + "/perflogs",
		InstallTree:  dir + "/install",
		Workers:      1,
		QueueDepth:   4,
		TickInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sub, err := srv.Bus().Subscribe([]string{eventbus.TypeScheduleFired}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Scheduler().Add(cbsched.Spec{
		Benchmark: "babelstream-omp", System: "archer2", Every: cbsched.Duration(10 * time.Millisecond),
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := sub.Next(ctx); err != nil {
		t.Fatalf("the schedule never fired from the tick loop: %v", err)
	}
	if !schedulerRunning(t, ts.URL) {
		t.Error("healthz: scheduler not running while the daemon serves")
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if schedulerRunning(t, ts.URL) {
		t.Error("healthz: scheduler still running after Shutdown")
	}
}

// schedulerRunning reads /healthz's scheduler.running.
func schedulerRunning(t *testing.T, base string) bool {
	t.Helper()
	var h struct {
		Scheduler struct {
			Running bool `json:"running"`
		} `json:"scheduler"`
	}
	if code := getJSON(t, base+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	return h.Scheduler.Running
}
