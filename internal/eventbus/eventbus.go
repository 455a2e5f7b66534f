// Package eventbus is the daemon's in-process pub/sub spine: the run
// pipeline, the recurring-suite scheduler, and the storage engine
// publish typed events here, and any number of consumers — the
// /v1/watch SSE streams, the chaos harness, future federation hooks —
// subscribe without ever being able to stall a publisher.
//
// The contract that makes continuous benchmarking safe to push is the
// slow-consumer policy: every subscriber owns a bounded ring buffer,
// Publish never blocks, and when a ring overflows the *oldest* event is
// dropped and counted against that subscriber alone. A stalled
// dashboard therefore costs itself history, never ingest latency or
// other subscribers' events. A separate bounded replay ring on the bus
// lets reconnecting consumers catch up from a Last-Event-ID instead of
// re-reading the world.
package eventbus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// Event types published by the daemon. Subscribers filter on these
// names; the wire (SSE "event:" field) carries them verbatim.
const (
	TypeRunStarted         = "run.started"
	TypeRunFinished        = "run.finished"
	TypeRegressionDetected = "regression.detected"
	TypeScheduleFired      = "schedule.fired"
	TypeStoreSealed        = "store.sealed"
	TypeAlertFired         = "alert.fired"
	TypeAlertResolved      = "alert.resolved"
	TypeServerShutdown     = "server.shutdown"
)

// Types lists every event type the daemon publishes, for validation
// and documentation surfaces.
func Types() []string {
	return []string{
		TypeRunStarted, TypeRunFinished, TypeRegressionDetected,
		TypeScheduleFired, TypeStoreSealed, TypeAlertFired,
		TypeAlertResolved, TypeServerShutdown,
	}
}

// Event is one bus message. IDs are assigned by the bus, strictly
// increasing across all types, and never reused — they are the SSE
// Last-Event-ID cursor.
type Event struct {
	ID   uint64            `json:"id"`
	Type string            `json:"type"`
	Time time.Time         `json:"time"`
	Data map[string]string `json:"data,omitempty"`
}

// ErrClosed is returned by Publish, Subscribe, and Subscriber.Next
// after Close: the daemon is shutting down and no further events will
// flow. It is permanent (not transient), so retrying publishers give up
// cleanly.
var ErrClosed = errors.New("eventbus: closed")

var (
	metricEvents = telemetry.DefaultRegistry.Counter(
		"eventbus_events_total",
		"Events published to the bus, by type.",
		"type")
	metricSubscribers = telemetry.DefaultRegistry.Gauge(
		"eventbus_subscribers",
		"Live bus subscribers.").With()
	metricDropped = telemetry.DefaultRegistry.Counter(
		"eventbus_dropped_total",
		"Events dropped instead of delivered, by reason (slow_subscriber: a full per-subscriber ring evicted its oldest event; replay_gap: a Last-Event-ID catch-up started past the replay ring's tail).",
		"reason")
)

// Bus is the concurrency-safe event fan-out. The zero value is not
// usable; call New.
type Bus struct {
	// Now supplies event timestamps (defaults to time.Now; fixed in
	// tests for deterministic events).
	Now func() time.Time

	mu      sync.Mutex
	seq     uint64
	subs    map[int]*Subscriber
	nextSub int
	closed  bool

	// replay is a bounded ring of the most recent events (all types),
	// serving Last-Event-ID catch-up. start indexes the oldest retained
	// event once the ring has wrapped.
	replay    []Event
	replayCap int
	start     int
}

// New builds a bus whose replay ring retains the last replayCap events
// (default 1024 when <= 0).
func New(replayCap int) *Bus {
	if replayCap <= 0 {
		replayCap = 1024
	}
	return &Bus{
		Now:       time.Now,
		subs:      map[int]*Subscriber{},
		replayCap: replayCap,
	}
}

// Publish stamps and fans out one event. It never blocks on consumers:
// a subscriber whose ring is full loses its oldest event (counted in
// eventbus_dropped_total{reason="slow_subscriber"} and on the
// subscriber). The "eventbus.publish" injection point fires before any
// state changes, so a failed Publish delivered nothing and is safe to
// retry without duplicating events.
func (b *Bus) Publish(typ string, data map[string]string) (Event, error) {
	if err := faultinject.Fire("eventbus.publish"); err != nil {
		return Event{}, fmt.Errorf("eventbus: publish %s: %w", typ, err)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return Event{}, ErrClosed
	}
	b.seq++
	ev := Event{ID: b.seq, Type: typ, Time: b.Now(), Data: data}
	if len(b.replay) < b.replayCap {
		b.replay = append(b.replay, ev)
	} else {
		b.replay[b.start] = ev
		b.start = (b.start + 1) % b.replayCap
	}
	for _, sub := range b.subs {
		sub.push(ev)
	}
	b.mu.Unlock()
	metricEvents.With(typ).Inc()
	return ev, nil
}

// Subscribe registers a consumer for the given event types (nil or
// empty = every type) with a ring of the given capacity (default 256
// when <= 0). The subscriber must be Closed when done, or it leaks a
// slot until the bus closes.
func (b *Bus) Subscribe(types []string, buffer int) (*Subscriber, error) {
	if buffer <= 0 {
		buffer = 256
	}
	var want map[string]struct{}
	if len(types) > 0 {
		want = make(map[string]struct{}, len(types))
		for _, t := range types {
			want[t] = struct{}{}
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	b.nextSub++
	sub := &Subscriber{
		bus:    b,
		id:     b.nextSub,
		types:  want,
		buf:    make([]Event, buffer),
		notify: make(chan struct{}, 1),
	}
	b.subs[sub.id] = sub
	metricSubscribers.Inc()
	return sub, nil
}

// ReplaySince returns the retained events with ID > after matching the
// given types (nil = all), oldest first. gap reports that the ring no
// longer reaches back to `after` — events between `after` and the
// oldest retained ID were evicted, and the caller should tell its
// consumer the stream has a hole rather than silently skipping it. A
// cursor past the newest ID comes from an earlier boot (IDs restart at
// 1): that is a gap too, and every retained event is new to the caller.
func (b *Bus) ReplaySince(after uint64, types []string) (events []Event, gap bool) {
	var want map[string]struct{}
	if len(types) > 0 {
		want = make(map[string]struct{}, len(types))
		for _, t := range types {
			want[t] = struct{}{}
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if after > b.seq {
		after, gap = 0, true
	}
	n := len(b.replay)
	if n > 0 {
		oldest := b.replay[b.start].ID
		if oldest > after+1 {
			gap = true
		}
	} else if b.seq > after {
		gap = true
	}
	for i := 0; i < n; i++ {
		ev := b.replay[(b.start+i)%n]
		if ev.ID <= after {
			continue
		}
		if want != nil {
			if _, ok := want[ev.Type]; !ok {
				continue
			}
		}
		events = append(events, ev)
	}
	if gap {
		metricDropped.With("replay_gap").Inc()
	}
	return events, gap
}

// LastID returns the most recently assigned event ID (0 before any
// publish).
func (b *Bus) LastID() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Subscribers returns the live subscriber count.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Close shuts the bus: subsequent Publish/Subscribe return ErrClosed,
// and every subscriber's Next drains its remaining buffered events and
// then returns ErrClosed. Close is idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := make([]*Subscriber, 0, len(b.subs))
	for _, sub := range b.subs {
		subs = append(subs, sub)
	}
	b.subs = map[int]*Subscriber{}
	b.mu.Unlock()
	for _, sub := range subs {
		sub.shut()
		metricSubscribers.Dec()
	}
}

// Subscriber is one bounded consumer. Events are delivered in publish
// order; when the consumer falls behind its ring capacity, the oldest
// undelivered events are discarded and counted in Dropped.
type Subscriber struct {
	bus   *Bus
	id    int
	types map[string]struct{}

	mu      sync.Mutex
	buf     []Event // fixed-capacity ring
	head    int     // index of oldest buffered event
	n       int     // buffered events
	dropped uint64
	closed  bool
	notify  chan struct{}
}

// push appends one event, evicting the oldest on overflow. Called by
// the bus with the bus lock held; the subscriber lock nests inside it
// (Next and Close never call back into the bus while holding sub.mu).
func (s *Subscriber) push(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.types != nil {
		if _, ok := s.types[ev.Type]; !ok {
			s.mu.Unlock()
			return
		}
	}
	if s.n == len(s.buf) {
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.dropped++
		metricDropped.With("slow_subscriber").Inc()
	}
	s.buf[(s.head+s.n)%len(s.buf)] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next blocks until an event is buffered, the context ends, or the
// subscriber (or bus) is closed. After close, buffered events are still
// drained in order before ErrClosed is returned — a shutdown event
// published just before Close always reaches prompt consumers.
func (s *Subscriber) Next(ctx context.Context) (Event, error) {
	for {
		s.mu.Lock()
		if s.n > 0 {
			ev := s.buf[s.head]
			s.buf[s.head] = Event{} // drop the reference for GC
			s.head = (s.head + 1) % len(s.buf)
			s.n--
			s.mu.Unlock()
			return ev, nil
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return Event{}, ErrClosed
		}
		select {
		case <-s.notify:
		case <-ctx.Done():
			return Event{}, ctx.Err()
		}
	}
}

// Dropped returns how many events this subscriber lost to ring
// overflow.
func (s *Subscriber) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close unregisters the subscriber. Pending events are discarded and a
// blocked Next returns ErrClosed. Idempotent.
func (s *Subscriber) Close() {
	s.bus.mu.Lock()
	_, registered := s.bus.subs[s.id]
	delete(s.bus.subs, s.id)
	s.bus.mu.Unlock()
	if registered {
		metricSubscribers.Dec()
	}
	s.shut()
}

// shut marks the subscriber closed and wakes a blocked Next. It does
// not touch the bus registry (Bus.Close already emptied it).
func (s *Subscriber) shut() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		select {
		case s.notify <- struct{}{}:
		default:
		}
	}
}
