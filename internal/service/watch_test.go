package service

// End-to-end tests for GET /v1/watch: the SSE surface over the event
// bus. Real HTTP servers (httptest.NewServer) throughout — SSE only
// exists on a live connection.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/eventbus"
	"repro/internal/telemetry"
)

// newWatchServer boots a daemon for streaming tests. Cleanup shuts the
// server down FIRST (ending every SSE stream via the terminal event)
// and closes the listener after — the reverse order would deadlock:
// httptest.Close waits for outstanding requests, and a watch stream
// only ends when the bus closes.
func newWatchServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{
		PerflogRoot:       dir + "/perflogs",
		InstallTree:       dir + "/install",
		Workers:           2,
		QueueDepth:        16,
		HeartbeatInterval: 200 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return srv, ts
}

// watchConn is one test subscriber: a live /v1/watch stream with its
// events and comments decoded onto channels by a reader goroutine.
type watchConn struct {
	resp     *http.Response
	events   chan eventbus.Event
	comments chan string
	done     chan error // stream end: nil on EOF, else the read error
}

func dialWatch(t *testing.T, base, query string, lastID uint64) *watchConn {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/watch"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("watch status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type = %q", ct)
	}
	wc := &watchConn{
		resp:     resp,
		events:   make(chan eventbus.Event, 1<<14),
		comments: make(chan string, 256),
		done:     make(chan error, 1),
	}
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		var data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "data:"):
				data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
			case strings.HasPrefix(line, ":"):
				select {
				case wc.comments <- strings.TrimSpace(strings.TrimPrefix(line, ":")):
				default:
				}
			case line == "" && data != "":
				var ev eventbus.Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					wc.done <- fmt.Errorf("bad payload %q: %w", data, err)
					return
				}
				data = ""
				wc.events <- ev
			}
		}
		wc.done <- sc.Err()
	}()
	t.Cleanup(wc.close)
	return wc
}

func (wc *watchConn) close() { wc.resp.Body.Close() }

// next waits for one event, failing the test on timeout.
func (wc *watchConn) next(t *testing.T, timeout time.Duration) eventbus.Event {
	t.Helper()
	select {
	case ev := <-wc.events:
		return ev
	case <-time.After(timeout):
		t.Fatalf("no event within %s", timeout)
		return eventbus.Event{}
	}
}

// collect waits for n events of the given type (other types are
// skipped), failing the test on timeout.
func (wc *watchConn) collect(t *testing.T, typ string, n int, timeout time.Duration) []eventbus.Event {
	t.Helper()
	deadline := time.After(timeout)
	var out []eventbus.Event
	for len(out) < n {
		select {
		case ev := <-wc.events:
			if typ == "" || ev.Type == typ {
				out = append(out, ev)
			}
		case <-deadline:
			t.Fatalf("got %d/%d %q events within %s", len(out), n, typ, timeout)
		}
	}
	return out
}

// TestWatchFanout is the acceptance gate: 50 concurrent subscribers
// each receive every run.finished and regression.detected event, in the
// same bus order, while real runs execute.
func TestWatchFanout(t *testing.T) {
	srv, ts := newWatchServer(t, nil)

	const subscribers = 50
	conns := make([]*watchConn, subscribers)
	for i := range conns {
		conns[i] = dialWatch(t, ts.URL, "?types=run.finished,regression.detected", 0)
	}
	// Every stream is live before events flow (the "watching" greeting
	// flushes after subscription), so nothing below can be missed.
	for _, wc := range conns {
		select {
		case c := <-wc.comments:
			if c != "watching" {
				t.Fatalf("greeting = %q", c)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no greeting comment")
		}
	}

	const runs = 3
	for i := 0; i < runs; i++ {
		code := postJSON(t, ts.URL+"/v1/runs",
			`{"benchmark":"babelstream-omp","system":"archer2"}`, nil)
		if code != http.StatusAccepted {
			t.Fatalf("submit status = %d", code)
		}
	}
	// A synthetic regression event checks the second subscribed type
	// rides the same stream.
	if _, err := srv.Bus().Publish(eventbus.TypeRegressionDetected, map[string]string{"fom": "triad_mbps"}); err != nil {
		t.Fatal(err)
	}

	var reference []uint64
	for i, wc := range conns {
		evs := wc.collect(t, "", runs+1, 60*time.Second)
		finished, regressions := 0, 0
		var ids []uint64
		for _, ev := range evs {
			switch ev.Type {
			case eventbus.TypeRunFinished:
				finished++
				if ev.Data["status"] != StatusCompleted {
					t.Errorf("subscriber %d: run.finished status = %q", i, ev.Data["status"])
				}
			case eventbus.TypeRegressionDetected:
				regressions++
			default:
				t.Errorf("subscriber %d: unexpected type %q through the filter", i, ev.Type)
			}
			ids = append(ids, ev.ID)
		}
		if finished != runs || regressions != 1 {
			t.Errorf("subscriber %d: %d finished + %d regressions, want %d + 1", i, finished, regressions, runs)
		}
		for j := 1; j < len(ids); j++ {
			if ids[j] <= ids[j-1] {
				t.Errorf("subscriber %d: event ids out of order: %v", i, ids)
			}
		}
		if i == 0 {
			reference = ids
		} else if fmt.Sprint(ids) != fmt.Sprint(reference) {
			t.Errorf("subscriber %d saw %v, subscriber 0 saw %v", i, ids, reference)
		}
	}
}

// TestWatchLastEventIDReplay covers reconnect catch-up: a client that
// comes back with Last-Event-ID receives everything it missed from the
// replay ring, then seamlessly continues live, without duplicates.
func TestWatchLastEventIDReplay(t *testing.T) {
	srv, ts := newWatchServer(t, nil)

	var ids []uint64
	for i := 0; i < 6; i++ {
		ev, err := srv.Bus().Publish(eventbus.TypeStoreSealed, map[string]string{"n": strconv.Itoa(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ev.ID)
	}

	// "Reconnect" having seen the first three.
	wc := dialWatch(t, ts.URL, "?types=store.sealed", ids[2])
	replay := wc.collect(t, eventbus.TypeStoreSealed, 3, 5*time.Second)
	for i, ev := range replay {
		if ev.ID != ids[3+i] {
			t.Fatalf("replay[%d].ID = %d, want %d", i, ev.ID, ids[3+i])
		}
	}
	// Then live delivery continues past the replay, no duplicates.
	liveEv, err := srv.Bus().Publish(eventbus.TypeStoreSealed, map[string]string{"n": "live"})
	if err != nil {
		t.Fatal(err)
	}
	live := wc.next(t, 5*time.Second)
	if live.ID != liveEv.ID || live.Data["n"] != "live" {
		t.Fatalf("live event = %+v, want id %d", live, liveEv.ID)
	}
}

// TestWatchReplayGap: a client asking for history the bounded replay
// ring has evicted is told about the hole instead of silently missing
// it.
func TestWatchReplayGap(t *testing.T) {
	srv, ts := newWatchServer(t, func(c *Config) { c.ReplayBuffer = 4 })

	var first uint64
	for i := 0; i < 12; i++ {
		ev, err := srv.Bus().Publish(eventbus.TypeStoreSealed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = ev.ID
		}
	}
	wc := dialWatch(t, ts.URL, "", first)
	select {
	case c := <-wc.comments:
		if !strings.Contains(c, "replay gap") {
			t.Fatalf("comment = %q, want a replay-gap notice", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no replay-gap comment")
	}
	// Whatever the ring still holds (the newest 4) is replayed.
	evs := wc.collect(t, eventbus.TypeStoreSealed, 4, 5*time.Second)
	if last := evs[len(evs)-1].ID; last != first+11 {
		t.Fatalf("last replayed id = %d, want %d", last, first+11)
	}
}

// TestWatchCursorFromEarlierBoot: event ids restart at 1 each boot. A
// client resuming with a cursor from an earlier life gets the gap
// comment and the whole ring, and then live events whose ids are at or
// below its old cursor: none is skipped as already seen.
func TestWatchCursorFromEarlierBoot(t *testing.T) {
	srv, ts := newWatchServer(t, nil)
	for i := 0; i < 3; i++ {
		if _, err := srv.Bus().Publish(eventbus.TypeStoreSealed, nil); err != nil {
			t.Fatal(err)
		}
	}
	last := srv.Bus().LastID()
	wc := dialWatch(t, ts.URL, "?types=store.sealed", last+2)
	select {
	case c := <-wc.comments:
		if !strings.Contains(c, "replay gap") {
			t.Fatalf("comment = %q, want a replay-gap notice", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no replay-gap comment for a cursor from an earlier boot")
	}
	replay := wc.collect(t, eventbus.TypeStoreSealed, 3, 5*time.Second)
	if replay[0].ID != last-2 || replay[2].ID != last {
		t.Fatalf("replayed ids %d..%d, want %d..%d", replay[0].ID, replay[2].ID, last-2, last)
	}
	for i := uint64(1); i <= 2; i++ {
		ev, err := srv.Bus().Publish(eventbus.TypeStoreSealed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if live := wc.next(t, 5*time.Second); live.ID != ev.ID || live.ID != last+i {
			t.Fatalf("live event id = %d, want %d", live.ID, last+i)
		}
	}
}

// TestWatchSlowClientDrop: a stalled subscriber overflows its bounded
// ring (drop-oldest, metric incremented) and its connection is
// reclaimed by the write deadline — while a healthy subscriber on the
// same bus receives every event and publishing never blocks.
func TestWatchSlowClientDrop(t *testing.T) {
	srv, ts := newWatchServer(t, func(c *Config) {
		c.EventBuffer = 8
		c.HeartbeatInterval = 100 * time.Millisecond
	})
	reg := telemetry.DefaultRegistry
	droppedBefore, _ := reg.Value("eventbus_dropped_total", "slow_subscriber")

	healthy := dialWatch(t, ts.URL, "?types=store.sealed", 0)

	// The stalled client: connected, never reads. The server's writes
	// land in kernel buffers until they fill, then block until the
	// rolling write deadline reclaims the handler; meanwhile its ring
	// (capacity 8) overflows and drops oldest.
	stalled, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/watch?types=store.sealed", nil)
	if err != nil {
		t.Fatal(err)
	}
	stalledResp, err := http.DefaultClient.Do(stalled)
	if err != nil {
		t.Fatal(err)
	}
	defer stalledResp.Body.Close()

	// Bulky payloads fill the stalled connection's socket buffers in a
	// few events, wedging its handler mid-write; the publishes are paced
	// so the HEALTHY subscriber's 8-slot ring always drains in time —
	// only the wedged stream falls behind and overflows.
	pad := strings.Repeat("x", 32*1024)
	const total = 150
	publishStart := time.Now()
	for i := 0; i < total; i++ {
		if _, err := srv.Bus().Publish(eventbus.TypeStoreSealed, map[string]string{"n": strconv.Itoa(i), "pad": pad}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Publishing must never block on the stalled consumer: the paced
	// loop's wall clock is its own sleeps, not the wedged stream.
	if d := time.Since(publishStart); d > 30*time.Second {
		t.Errorf("publishing stalled for %s behind a slow consumer", d)
	}

	// The healthy subscriber gets all 300, in order.
	evs := healthy.collect(t, eventbus.TypeStoreSealed, total, 60*time.Second)
	for i, ev := range evs {
		if ev.Data["n"] != strconv.Itoa(i) {
			t.Fatalf("healthy subscriber: event %d has n=%s (lost or reordered)", i, ev.Data["n"])
		}
	}

	// The stalled subscriber's drops are visible in /metrics.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if dropped, _ := reg.Value("eventbus_dropped_total", "slow_subscriber"); dropped > droppedBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("eventbus_dropped_total{slow_subscriber} never incremented for the stalled stream")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWatchShutdownDelivery: graceful shutdown publishes a terminal
// server.shutdown event, every stream receives it and ends cleanly,
// and Shutdown itself completes (no handler left holding it up).
func TestWatchShutdownDelivery(t *testing.T) {
	srv, ts := newWatchServer(t, nil)
	wc := dialWatch(t, ts.URL, "", 0)
	filtered := dialWatch(t, ts.URL, "?types=store.sealed", 0)

	if _, err := srv.Bus().Publish(eventbus.TypeStoreSealed, nil); err != nil {
		t.Fatal(err)
	}
	if ev := wc.next(t, 5*time.Second); ev.Type != eventbus.TypeStoreSealed {
		t.Fatalf("event type = %q", ev.Type)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()

	// Both streams — including the filtered one, which always carries
	// the terminal type — see server.shutdown and then EOF.
	for name, c := range map[string]*watchConn{"unfiltered": wc, "filtered": filtered} {
		evs := c.collect(t, eventbus.TypeServerShutdown, 1, 10*time.Second)
		if evs[0].Type != eventbus.TypeServerShutdown {
			t.Fatalf("%s: terminal event = %+v", name, evs[0])
		}
		select {
		case err := <-c.done:
			if err != nil {
				t.Errorf("%s: stream ended with %v, want clean EOF", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: stream did not end after the terminal event", name)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestWatchBadRequests: unknown type filters and malformed Last-Event-ID
// are rejected up front with 400s, not half-open streams.
func TestWatchBadRequests(t *testing.T) {
	_, ts := newWatchServer(t, nil)

	resp, err := http.Get(ts.URL + "/v1/watch?types=nonsense")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown type: status = %d, want 400", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/watch", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad Last-Event-ID: status = %d, want 400", resp.StatusCode)
	}
}

// TestWatchHeartbeat: a quiet stream still carries keepalive comments.
func TestWatchHeartbeat(t *testing.T) {
	_, ts := newWatchServer(t, func(c *Config) { c.HeartbeatInterval = 50 * time.Millisecond })
	wc := dialWatch(t, ts.URL, "", 0)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case c := <-wc.comments:
			if c == "heartbeat" {
				return
			}
		case <-deadline:
			t.Fatal("no heartbeat on a quiet stream")
		}
	}
}

// TestWatchStreamsOutliveRequestTimeout: the watch stream must not be
// cut by the API request timeout (it bypasses the TimeoutHandler).
func TestWatchStreamsOutliveRequestTimeout(t *testing.T) {
	srv, ts := newWatchServer(t, func(c *Config) {
		c.RequestTimeout = 150 * time.Millisecond
		c.HeartbeatInterval = 50 * time.Millisecond
	})
	wc := dialWatch(t, ts.URL, "", 0)
	time.Sleep(400 * time.Millisecond) // well past the request timeout
	if _, err := srv.Bus().Publish(eventbus.TypeStoreSealed, nil); err != nil {
		t.Fatal(err)
	}
	if ev := wc.next(t, 5*time.Second); ev.Type != eventbus.TypeStoreSealed {
		t.Fatalf("event after timeout window = %+v", ev)
	}
}
