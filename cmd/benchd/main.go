// Command benchd is the continuous-benchmarking daemon: a perflog
// store behind an HTTP API. Runs submitted over HTTP execute through
// the same reproducible pipeline benchctl drives (concretize → build →
// schedule → run → extract), and every perflog entry — whether produced
// by a daemon run or appended to the tree by out-of-band benchctl
// invocations — is served from one incremental, queryable store. A
// run's entry enters the store through its durable group commit; lines
// other processes append are picked up by the maintenance loop, within
// one maintenance interval (30 s). Queries never read the tree.
//
//	benchd --addr :8080 --perflog perflogs --tree install --workers 4
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/runs \
//	    -d '{"benchmark":"babelstream-omp","system":"archer2"}'
//	curl -s localhost:8080/v1/runs/run-000001
//	curl -s 'localhost:8080/v1/query?benchmark=babelstream-omp&fom=triad_mbps&agg=mean&group_by=system'
//	curl -s 'localhost:8080/v1/regressions?fom=triad_mbps&tolerance=0.1&window=5'
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/v1/traces/run-000001
//
// Continuous benchmarking: POST /v1/schedules re-runs a benchmark on
// an interval and/or whenever its concretized build hash changes, and
// GET /v1/watch streams lifecycle events (run.started, run.finished,
// regression.detected, schedule.fired, store.sealed, server.shutdown)
// as Server-Sent Events with Last-Event-ID replay:
//
//	curl -s -X POST localhost:8080/v1/schedules \
//	    -d '{"benchmark":"babelstream-omp","system":"archer2","every":"10m"}'
//	curl -sN 'localhost:8080/v1/watch?types=run.finished,regression.detected'
//
// Self-observability: the daemon samples its own metrics into a
// multi-resolution history, evaluates declarative alert rules
// (publishing alert.fired / alert.resolved on /v1/watch), and captures
// pprof snapshots when alerts fire:
//
//	curl -s -X POST localhost:8080/v1/alerts \
//	    -d '{"metric":"benchd_queue_depth","kind":"threshold","op":"gt","value":48,"for":"30s"}'
//	curl -s 'localhost:8080/v1/metrics/history?name=benchd_queue_depth&since=15m'
//	curl -s localhost:8080/v1/profiles
//
// SIGINT or SIGTERM stops the daemon gracefully (Server.Shutdown, bounded
// by --drain): queued runs drain, the perflog writer closes and, with
// --data-dir, the head is sealed so the next boot parses no perflog
// bytes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchd:", err)
		os.Exit(1)
	}
}

// run boots the daemon and serves until ctx ends, then shuts it down
// gracefully (Server.Shutdown, bounded by --drain).
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("benchd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	perflogRoot := fs.String("perflog", "perflogs", "perflog root directory")
	dataDir := fs.String("data-dir", "", "segment store directory (empty = in-memory store, full re-parse each boot)")
	sealThreshold := fs.Int("seal-threshold", 4096, "head entries at which the maintenance loop seals a segment")
	compactSegments := fs.Int("compact-segments", 8, "sealed segment count that triggers compaction")
	tree := fs.String("tree", "install", "install tree directory")
	workers := fs.Int("workers", 2, "concurrent benchmark executions")
	queueDepth := fs.Int("queue", 64, "maximum pending runs")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	drain := fs.Duration("drain", 2*time.Minute, "shutdown grace period for queued runs")
	enablePprof := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	logJSON := fs.Bool("log-json", false, "emit logs as JSON instead of text")
	verbose := fs.Bool("v", false, "debug-level logging")
	stageTimeout := fs.Duration("stage-timeout", 0, "per-stage pipeline budget for executed runs (0 = no limit)")
	tick := fs.Duration("tick", time.Second, "recurring-schedule tick interval")
	heartbeat := fs.Duration("heartbeat", 15*time.Second, "/v1/watch keepalive interval")
	regressTol := fs.Float64("regress-tolerance", 0.10, "fractional drop flagged after scheduled runs")
	regressWindow := fs.Int("regress-window", 5, "sliding baseline window for post-run regression detection (<0 disables)")
	rsdGate := fs.Float64("rsd-gate", 0, "relative-stddev above which a repetition set is 'unstable' and excluded from baselines (0 = default 0.10, <0 disables)")
	sampleInterval := fs.Duration("sample-interval", 10*time.Second, "self-observability metric sampling interval")
	profileLimit := fs.Int("profile-limit", 16, "retained alert-triggered pprof artifacts")
	profileCooldown := fs.Duration("profile-cooldown", time.Minute, "minimum gap between alert-triggered profile captures")
	commitInterval := fs.Duration("commit-interval", 0, "perflog group-commit accumulation window (0 = commit when idle)")
	commitBytes := fs.Int("commit-bytes", 0, "flush a perflog commit batch early at this many buffered bytes (0 = 1 MiB)")
	retries := fs.Int("retries", 0, "max attempts per pipeline stage on transient failures (0 = default policy)")
	faults := fs.String("faults", "", "fault-injection schedule, e.g. 'scheduler.submit:error:rate=0.1' (testing)")
	faultSeed := fs.Int64("fault-seed", 1, "PRNG seed for --faults decisions")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Fault injection arms from the environment first (BENCH_FAULTS /
	// BENCH_FAULT_SEED), then --faults overrides.
	if err := faultinject.LoadEnv(os.LookupEnv); err != nil {
		return err
	}
	if *faults != "" {
		rules, err := faultinject.ParseSchedule(*faults)
		if err != nil {
			return err
		}
		if err := faultinject.Load(*faultSeed, rules); err != nil {
			return err
		}
	}
	var policy *retry.Policy
	if *retries > 0 {
		p := retry.Default()
		p.MaxAttempts = *retries
		policy = &p
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := telemetry.NewLogger(os.Stderr, level, *logJSON)
	slog.SetDefault(logger)
	if faultinject.Armed() {
		logger.Warn("fault injection armed", "points", faultinject.Default.Points(), "seed", *faultSeed)
	}

	srv, err := service.New(service.Config{
		PerflogRoot:     *perflogRoot,
		DataDir:         *dataDir,
		SealThreshold:   *sealThreshold,
		CompactSegments: *compactSegments,
		InstallTree:     *tree,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		RequestTimeout:  *timeout,
		EnablePprof:     *enablePprof,
		Logger:          logger,
		Retry:           policy,
		StageTimeout:    *stageTimeout,
		CommitInterval:  *commitInterval,
		CommitBytes:     *commitBytes,

		TickInterval:        *tick,
		HeartbeatInterval:   *heartbeat,
		RegressionTolerance: *regressTol,
		RegressionWindow:    *regressWindow,
		RSDGate:             *rsdGate,

		SampleInterval:  *sampleInterval,
		ProfileLimit:    *profileLimit,
		ProfileCooldown: *profileCooldown,
	})
	if err != nil {
		return err
	}
	stats := srv.Store().Stats()
	logger.Info("perflog tree ingested",
		"entries", stats.Entries, "systems", stats.Systems,
		"bytes", stats.BytesParsed, "root", *perflogRoot)
	if *dataDir != "" {
		logger.Info("segment store opened",
			"data_dir", *dataDir, "sealed_segments", stats.SealedSegments,
			"sealed_entries", stats.SealedEntries, "head_entries", stats.HeadEntries,
			"manifest_generation", stats.ManifestGeneration, "degraded", srv.Degraded())
	}
	logger.Info("listening",
		"addr", *addr, "workers", *workers, "queue", *queueDepth, "pprof", *enablePprof)

	errc := make(chan error, 1)
	go func() { errc <- srv.Start(*addr) }()

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	logger.Info("shutting down, draining queued runs", "grace", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("bye")
	return nil
}
