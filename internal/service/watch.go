package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/eventbus"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

var (
	metricWatchStreams = telemetry.DefaultRegistry.Gauge(
		"benchd_watch_streams",
		"Live /v1/watch SSE streams.").With()
	metricWatchEvents = telemetry.DefaultRegistry.Counter(
		"benchd_watch_events_total",
		"Events written to /v1/watch streams, by delivery (live, replay).",
		"delivery")
)

// handleWatch serves GET /v1/watch: the event bus as a Server-Sent
// Events stream. It is mounted outside the request-timeout handler —
// a watch stream is long-lived by design — and writes under a rolling
// per-write deadline instead, so one wedged client connection is
// reclaimed after ~two heartbeat intervals rather than holding a
// goroutine forever.
//
//	?types=run.finished,regression.detected   comma-separated filter
//	Last-Event-ID: 42                         replay after reconnect
//
// Wire shape per event:
//
//	id: 43
//	event: run.finished
//	data: {"id":43,"type":"run.finished","time":...,"data":{...}}
//
// Heartbeat comments (": heartbeat") flow while the bus is quiet so
// proxies and clients can tell a silent stream from a dead one. When
// the subscriber's ring overflowed (a slow consumer), the hole is
// refilled from the bus's replay ring before anything newer is sent;
// only a hole the replay ring has also evicted is reported, as a
// ": dropped" comment. On graceful shutdown every stream receives a
// terminal server.shutdown event and ends cleanly.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	// ResponseController reaches the real connection through the
	// instrumentation wrapper (statusWriter.Unwrap) for Flush and
	// per-write deadlines.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	var types []string
	if raw := r.URL.Query().Get("types"); raw != "" {
		known := map[string]bool{}
		for _, t := range eventbus.Types() {
			known[t] = true
		}
		for _, t := range strings.Split(raw, ",") {
			t = strings.TrimSpace(t)
			if t == "" {
				continue
			}
			if !known[t] {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("unknown event type %q (types: %s)", t, strings.Join(eventbus.Types(), ", ")))
				return
			}
			types = append(types, t)
		}
		// A shutdown must be able to terminate every stream, so the
		// terminal type is always subscribed even under a filter.
		types = append(types, eventbus.TypeServerShutdown)
	}
	// A present Last-Event-ID header requests catch-up from that cursor;
	// an explicit 0 means "I have seen nothing — replay everything the
	// ring retains". No header means a live tail from now.
	var lastID uint64
	replayRequested := false
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		id, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad Last-Event-ID %q", raw))
			return
		}
		lastID = id
		replayRequested = true
	}

	// Subscribe before replaying: events published during the replay
	// land in the ring and are deduplicated below by ID, so the client
	// sees a gapless, strictly-increasing stream.
	sub, err := s.bus.Subscribe(types, s.cfg.EventBuffer)
	if err != nil {
		writeUnavailable(w, fmt.Errorf("watch unavailable: %w", err))
		return
	}
	defer sub.Close()
	metricWatchStreams.Inc()
	defer metricWatchStreams.Dec()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	writeDeadline := 2 * s.cfg.HeartbeatInterval
	writeEvent := func(ev eventbus.Event, delivery string) error {
		// The "service.watchwrite" injection point models the stream
		// write failing (a broken pipe, a wedged proxy): the stream ends
		// and the client reconnects with Last-Event-ID.
		if err := faultinject.Fire("service.watchwrite"); err != nil {
			return err
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		rc.SetWriteDeadline(time.Now().Add(writeDeadline))
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data); err != nil {
			return err
		}
		if err := rc.Flush(); err != nil {
			return err
		}
		metricWatchEvents.With(delivery).Inc()
		return nil
	}
	comment := func(text string) error {
		rc.SetWriteDeadline(time.Now().Add(writeDeadline))
		if _, err := fmt.Fprintf(w, ": %s\n\n", text); err != nil {
			return err
		}
		return rc.Flush()
	}

	if replayRequested {
		replay, gap := s.bus.ReplaySince(lastID, types)
		if gap {
			// The ring no longer reaches back that far, or the cursor is
			// from an earlier boot (ids restart at 1): tell the client its
			// view has a hole instead of silently skipping it. Every
			// retained event is then new to it, including live ones with
			// ids at or below its old cursor.
			if err := comment("replay gap: events before this point were evicted or belong to an earlier boot"); err != nil {
				return
			}
			lastID = 0
		}
		for _, ev := range replay {
			if err := writeEvent(ev, "replay"); err != nil {
				return
			}
			lastID = ev.ID
		}
	} else if err := comment("watching"); err != nil {
		return
	}

	// When the subscriber's own ring overflowed under a publish burst,
	// the hole is usually still covered by the bus's (much larger)
	// replay ring: refill from there before writing anything newer, so
	// the stream stays gapless and the client's Last-Event-ID never
	// skips past events it did not see. Only a hole the replay ring has
	// also evicted is a real loss, and that one is disclosed.
	var droppedSeen uint64
	recoverDropped := func() error {
		d := sub.Dropped()
		if d <= droppedSeen {
			return nil
		}
		droppedSeen = d
		replay, gap := s.bus.ReplaySince(lastID, types)
		if gap {
			if err := comment("dropped (slow consumer): events before this point were evicted"); err != nil {
				return err
			}
		}
		for _, ev := range replay {
			if ev.ID <= lastID {
				continue
			}
			if err := writeEvent(ev, "replay"); err != nil {
				return err
			}
			lastID = ev.ID
		}
		return nil
	}
	for {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.HeartbeatInterval)
		ev, err := sub.Next(ctx)
		cancel()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			if err := recoverDropped(); err != nil {
				return
			}
			if err := comment("heartbeat"); err != nil {
				return
			}
			continue
		case err != nil:
			// Bus closed (shutdown already delivered the terminal event
			// through the ring) or the client went away.
			return
		}
		if err := recoverDropped(); err != nil {
			return
		}
		if ev.ID <= lastID {
			continue // already sent during replay or drop recovery
		}
		lastID = ev.ID
		if err := writeEvent(ev, "live"); err != nil {
			return
		}
		if ev.Type == eventbus.TypeServerShutdown {
			return
		}
	}
}
