package service

import (
	"context"
	"testing"
	"time"

	"repro/internal/eventbus"
	"repro/internal/fom"
	"repro/internal/perflog"
	"repro/internal/telemetry"
)

// TestDetectRegressionsReadsOnlyTheWindow: the post-run check of a
// scheduled run publishes regression.detected with the verdict of the
// bounded baseline, and what it reads from the store is set by the
// window, not by how long the pair's history has grown.
func TestDetectRegressionsReadsOnlyTheWindow(t *testing.T) {
	srv, _ := newTestServer(t)
	sub, err := srv.Bus().Subscribe([]string{eventbus.TypeRegressionDetected}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const history = 3000
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	entryAt := func(i int, benchmark string, v float64) *perflog.Entry {
		return &perflog.Entry{
			Time: t0.Add(time.Duration(i) * time.Minute), Benchmark: benchmark, System: "archer2",
			Partition: "compute", Environ: "gcc", Spec: benchmark + "%gcc", JobID: i, Result: "pass",
			FOMs: map[string]fom.Value{"l0": {Name: "l0", Value: v, Unit: "MDOF/s"}},
		}
	}
	// An early slump the verdict would pick up if it read the whole
	// history, then a long steady stretch, then the run under test.
	var steady, other []*perflog.Entry
	for i := 0; i < history; i++ {
		v := 100.0
		if i < history/2 {
			v = 10
		}
		steady = append(steady, entryAt(i, "hpgmg-fv", v))
		other = append(other, entryAt(i, "hpcg-original", 100))
	}
	latest := entryAt(history, "hpgmg-fv", 50)
	if err := srv.writer.Append("archer2", "hpgmg-fv", append(steady, latest)...); err != nil {
		t.Fatal(err)
	}
	if err := srv.writer.Append("archer2", "hpcg-original", other...); err != nil {
		t.Fatal(err)
	}

	read := func() float64 {
		v, _ := telemetry.DefaultRegistry.Value("perfstore_query_rows_visited_total")
		return v
	}
	before := read()
	srv.detectRegressions(context.Background(), &Run{ID: "run-000001", ScheduleID: "sched-000001"}, latest)
	if rows := read() - before; rows > 100 {
		t.Errorf("post-run check read %g rows of a %d-entry pair history; the window is %d", rows, history, srv.cfg.RegressionWindow)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ev, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("no regression.detected: %v", err)
	}
	if ev.Data["group"] != "archer2/hpgmg-fv" || ev.Data["fom"] != "l0" || ev.Data["baseline"] != "100" || ev.Data["latest"] != "50" {
		t.Fatalf("regression.detected carried %v", ev.Data)
	}
}
