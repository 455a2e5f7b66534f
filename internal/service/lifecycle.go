package service

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/eventbus"
	"repro/internal/obs"
)

// every calls fn every d on its own goroutine until the returned stop
// is called; stop waits for a pass in progress to return.
func every(d time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() { close(quit); <-done }
}

// startLoops starts the daemon's three periodic jobs: storage
// maintenance, the schedule tick and the self-observability sampler. A
// degraded (read-only) daemon keeps its schedule registry queryable but
// does not tick: every firing would be refused by the store anyway.
func (s *Server) startLoops() {
	s.loops = append(s.loops, every(s.cfg.MaintenanceInterval, s.maintain))
	if !s.degraded {
		s.loops = append(s.loops, every(s.cfg.TickInterval, s.sched.Tick))
	}
	s.stopSampler = every(s.obs.Interval(), func() {
		if err := s.obs.Sample(time.Now()); err != nil {
			s.cfg.Logger.Warn("sample tick skipped", "error", err.Error())
		}
	})
}

// maintain is one pass of the storage maintenance loop: it ingests what
// out-of-band appenders added to the perflog tree and, on a tiered
// store, seals a grown head into a segment and compacts small segments,
// keeping boot O(headers) and query fan-out bounded. Sealing and
// compaction do nothing on a memory-only store, which is what a
// degraded boot opens.
func (s *Server) maintain() {
	s.syncOutOfBand()
	n, err := s.store.MaybeSeal(s.cfg.SealThreshold)
	s.sealed("maintenance", n, err)
	if ran, err := s.store.Compact(s.cfg.CompactSegments); err != nil {
		s.cfg.Logger.Error("compaction failed", "error", err.Error())
	} else if ran {
		s.cfg.Logger.Info("segments compacted")
	}
}

// syncOutOfBand ingests perflog lines the daemon did not write, between
// group commits, so it never reads a commit's bytes before the commit
// has indexed them. A failure is logged and counted.
func (s *Server) syncOutOfBand() {
	var err error
	s.writer.BetweenCommits(func() { err = s.store.Sync() })
	if err != nil {
		metricIngestErrors.With("sync").Inc()
		s.cfg.Logger.Error("out-of-band sync failed", "error", err.Error())
	}
	s.logQuarantined()
}

// logQuarantined logs each perflog line the store quarantined since the
// last call (boot, a maintenance sync or a commit's gap read), as far as
// the store still remembers them.
func (s *Server) logQuarantined() {
	st := s.store.Stats()
	logged := s.badLogged.Load()
	if int64(st.BadLines) <= logged || !s.badLogged.CompareAndSwap(logged, int64(st.BadLines)) {
		return // nothing new, or a concurrent call won; the next call logs the rest
	}
	fresh := st.BadLines - int(logged)
	for _, b := range st.Quarantined[max(0, len(st.Quarantined)-fresh):] {
		s.cfg.Logger.Warn("perflog line quarantined", "file", b.File, "offset", b.Offset, "length", b.Length, "error", b.Error)
	}
}

// sealed logs a seal's outcome and announces a non-empty one as
// store.sealed. A failed seal loses nothing: the perflog tree still
// holds everything unsealed, and the next boot re-ingests that tail.
func (s *Server) sealed(reason string, n int, err error) {
	if err != nil {
		s.cfg.Logger.Error("seal failed", "reason", reason, "error", err.Error())
		return
	}
	if n > 0 {
		s.cfg.Logger.Info("head sealed", "reason", reason, "entries", n)
		s.publish(eventbus.TypeStoreSealed, map[string]string{
			"entries": fmt.Sprint(n), "reason": reason,
		})
	}
}

// Start serves HTTP on addr until Shutdown. It blocks, returning
// http.ErrServerClosed after a clean shutdown (at once if Shutdown came
// first).
func (s *Server) Start(addr string) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       s.cfg.RequestTimeout,
		WriteTimeout:      2 * s.cfg.RequestTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return http.ErrServerClosed
	}
	s.http = hs
	s.mu.Unlock()
	return hs.ListenAndServe()
}

// Shutdown stops the daemon by one sequence, whether or not the drain
// finishes before ctx ends:
//
//  1. stop intake (the run queue and the HTTP listener) and the tick
//     and maintenance loops;
//  2. drain the workers, bounded by ctx: every accepted run executes;
//  3. stop the sampler and flush its history;
//  4. close the writer, committing any batch still accumulating;
//  5. seal the head, only if the drain finished, so the next boot parses
//     zero perflog bytes (Seal does nothing on a memory-only store,
//     which is what a degraded boot opens);
//  6. resolve firing alerts (reason shutdown);
//  7. publish server.shutdown, which ends every /v1/watch stream;
//  8. close the bus;
//  9. wait for the HTTP shutdown, which waits for those streams;
//  10. return ctx.Err() if the drain timed out, else the HTTP error.
//
// DESIGN.md (Lifecycle) gives the reason for each position. A second
// call repeats no step and returns the first call's result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() { s.shutdownErr = s.shutdown(ctx) })
	return s.shutdownErr
}

func (s *Server) shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	close(s.queue)
	hs := s.http
	s.mu.Unlock()
	httpDone := make(chan error, 1)
	if hs != nil {
		go func() { httpDone <- hs.Shutdown(ctx) }()
	} else {
		httpDone <- nil
	}
	for _, stop := range s.loops {
		stop()
	}

	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	var drainErr error
	select {
	case <-drained:
	case <-ctx.Done():
		drainErr = ctx.Err()
	}

	s.stopSampler()
	if err := s.obs.Flush(); err != nil {
		s.cfg.Logger.Error("final history flush failed", "error", err.Error())
	}
	// Appends racing the close fail with ErrWriterClosed: their runs were
	// never acknowledged, so nothing durable is lost.
	if err := s.writer.Close(); err != nil {
		s.cfg.Logger.Error("perflog writer close failed", "error", err.Error())
	}
	if drainErr == nil {
		n, err := s.store.Seal()
		s.sealed("shutdown", n, err)
	}
	if n := s.obs.ResolveFiring(obs.ResolveShutdown); n > 0 {
		s.cfg.Logger.Info("firing alerts resolved by shutdown", "count", n)
	}
	s.publish(eventbus.TypeServerShutdown, nil)
	s.bus.Close()

	httpErr := <-httpDone
	if drainErr != nil {
		return drainErr
	}
	return httpErr
}
