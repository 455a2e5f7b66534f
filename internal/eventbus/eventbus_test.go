package eventbus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

func publish(t *testing.T, b *Bus, typ string, data map[string]string) Event {
	t.Helper()
	ev, err := b.Publish(typ, data)
	if err != nil {
		t.Fatalf("publish %s: %v", typ, err)
	}
	return ev
}

func TestFanOutOrdering(t *testing.T) {
	b := New(16)
	defer b.Close()
	subs := make([]*Subscriber, 3)
	for i := range subs {
		s, err := b.Subscribe(nil, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		subs[i] = s
	}
	want := []Event{
		publish(t, b, TypeRunStarted, map[string]string{"run_id": "run-1"}),
		publish(t, b, TypeRunFinished, map[string]string{"run_id": "run-1"}),
		publish(t, b, TypeScheduleFired, nil),
	}
	if want[0].ID >= want[1].ID || want[1].ID >= want[2].ID {
		t.Fatalf("ids not increasing: %v %v %v", want[0].ID, want[1].ID, want[2].ID)
	}
	for i, s := range subs {
		for j, w := range want {
			ev, err := s.Next(context.Background())
			if err != nil {
				t.Fatalf("sub %d event %d: %v", i, j, err)
			}
			if ev.ID != w.ID || ev.Type != w.Type {
				t.Fatalf("sub %d event %d = %+v, want %+v", i, j, ev, w)
			}
		}
	}
}

func TestTypeFilter(t *testing.T) {
	b := New(16)
	defer b.Close()
	s, err := b.Subscribe([]string{TypeRunFinished}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	publish(t, b, TypeRunStarted, nil)
	want := publish(t, b, TypeRunFinished, nil)
	publish(t, b, TypeScheduleFired, nil)
	ev, err := s.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ev.ID != want.ID {
		t.Fatalf("got %+v, want only %+v", ev, want)
	}
	if s.Buffered() != 0 {
		t.Fatalf("buffered = %d, want 0", s.Buffered())
	}
}

// TestSlowConsumerDropOldest is the slow-consumer policy: a full ring
// evicts its oldest event, counts the drop, and the consumer still
// receives the newest events in order.
func TestSlowConsumerDropOldest(t *testing.T) {
	b := New(64)
	defer b.Close()
	s, err := b.Subscribe(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var last Event
	for i := 0; i < 10; i++ {
		last = publish(t, b, TypeRunFinished, map[string]string{"i": fmt.Sprint(i)})
	}
	if got := s.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	// The surviving window is the newest 4, in order.
	for i := 6; i < 10; i++ {
		ev, ok := s.TryNext()
		if !ok {
			t.Fatalf("missing event %d", i)
		}
		if ev.Data["i"] != fmt.Sprint(i) {
			t.Fatalf("event = %+v, want i=%d", ev, i)
		}
	}
	if _, ok := s.TryNext(); ok {
		t.Fatal("ring should be empty")
	}
	if last.ID != 10 {
		t.Fatalf("last id = %d", last.ID)
	}
}

func TestReplaySince(t *testing.T) {
	b := New(4)
	defer b.Close()
	for i := 0; i < 6; i++ {
		publish(t, b, TypeRunFinished, map[string]string{"i": fmt.Sprint(i)})
	}
	// Ring holds ids 3..6. Catch-up from 4 is complete.
	evs, gap := b.ReplaySince(4, nil)
	if gap {
		t.Fatal("unexpected gap")
	}
	if len(evs) != 2 || evs[0].ID != 5 || evs[1].ID != 6 {
		t.Fatalf("replay = %+v", evs)
	}
	// Catch-up from 1 has a hole: id 2 was evicted.
	evs, gap = b.ReplaySince(1, nil)
	if !gap {
		t.Fatal("expected gap")
	}
	if len(evs) != 4 || evs[0].ID != 3 {
		t.Fatalf("replay = %+v", evs)
	}
	// Filtered replay.
	publish(t, b, TypeScheduleFired, nil)
	evs, _ = b.ReplaySince(5, []string{TypeScheduleFired})
	if len(evs) != 1 || evs[0].Type != TypeScheduleFired {
		t.Fatalf("filtered replay = %+v", evs)
	}
}

// TestReplaySinceCursorFromEarlierBoot: event ids restart at 1 each
// boot, so a cursor past the newest id is from an earlier life. It is
// a gap, and every retained event is replayed.
func TestReplaySinceCursorFromEarlierBoot(t *testing.T) {
	b := New(8)
	defer b.Close()
	for i := 0; i < 3; i++ {
		publish(t, b, TypeRunFinished, nil)
	}
	evs, gap := b.ReplaySince(5, nil)
	if !gap {
		t.Fatal("a cursor past the newest id reported no gap")
	}
	if len(evs) != 3 || evs[0].ID != 1 || evs[2].ID != 3 {
		t.Fatalf("replay = %+v, want ids 1..3", evs)
	}
	// On an empty bus it is a gap with nothing to replay.
	if evs, gap := New(8).ReplaySince(2, nil); !gap || len(evs) != 0 {
		t.Fatalf("empty bus: replay = %+v, gap = %v", evs, gap)
	}
}

func TestCloseDrainsThenErrClosed(t *testing.T) {
	b := New(8)
	s, err := b.Subscribe(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, b, TypeRunFinished, nil)
	shutdown := publish(t, b, TypeServerShutdown, nil)
	b.Close()
	// Buffered events drain in order after close...
	ev, err := s.Next(context.Background())
	if err != nil || ev.Type != TypeRunFinished {
		t.Fatalf("first = %+v, %v", ev, err)
	}
	ev, err = s.Next(context.Background())
	if err != nil || ev.ID != shutdown.ID {
		t.Fatalf("second = %+v, %v", ev, err)
	}
	// ...then the stream ends.
	if _, err := s.Next(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := b.Publish(TypeRunStarted, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("publish after close = %v", err)
	}
	if _, err := b.Subscribe(nil, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("subscribe after close = %v", err)
	}
}

func TestCloseWakesBlockedNext(t *testing.T) {
	b := New(8)
	s, err := b.Subscribe(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Next(context.Background())
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not wake on Close")
	}
}

func TestNextContextCancel(t *testing.T) {
	b := New(8)
	defer b.Close()
	s, err := b.Subscribe(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestSubscriberCount(t *testing.T) {
	b := New(8)
	defer b.Close()
	s1, _ := b.Subscribe(nil, 1)
	s2, _ := b.Subscribe(nil, 1)
	if got := b.Subscribers(); got != 2 {
		t.Fatalf("subscribers = %d", got)
	}
	s1.Close()
	s1.Close() // idempotent
	if got := b.Subscribers(); got != 1 {
		t.Fatalf("subscribers = %d", got)
	}
	s2.Close()
	if got := b.Subscribers(); got != 0 {
		t.Fatalf("subscribers = %d", got)
	}
}

// TestPublishFaultIsRetrySafe arms the eventbus.publish injection point
// and shows the documented contract: a failed Publish delivered nothing
// (no id burned, no partial fan-out), so a retry wrapper produces
// exactly one delivered event.
func TestPublishFaultIsRetrySafe(t *testing.T) {
	rules, err := faultinject.ParseSchedule("eventbus.publish:error:times=2")
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Load(1, rules); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	b := New(8)
	defer b.Close()
	s, err := b.Subscribe(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	policy := retry.Policy{MaxAttempts: 5, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	if err := policy.Do(context.Background(), "test.publish", func(context.Context, int) error {
		_, perr := b.Publish(TypeRunFinished, nil)
		return perr
	}); err != nil {
		t.Fatalf("retried publish failed: %v", err)
	}
	ev, err := s.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ev.ID != 1 {
		t.Fatalf("id = %d, want 1 (failed attempts must not burn ids)", ev.ID)
	}
	if _, ok := s.TryNext(); ok {
		t.Fatal("duplicate delivery after retry")
	}
}

// TestConcurrentPublishSubscribe hammers the bus from many goroutines
// under -race: publishers, churning subscribers, and a slow consumer.
// Every prompt subscriber must see every event exactly once, in order.
func TestConcurrentPublishSubscribe(t *testing.T) {
	b := New(4096)
	const publishers, perPublisher = 4, 200
	total := publishers * perPublisher

	prompt, err := b.Subscribe(nil, total)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := b.Subscribe(nil, 8)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				if _, err := b.Publish(TypeRunFinished, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Churn subscribers while publishing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s, err := b.Subscribe(nil, 4)
			if err != nil {
				t.Error(err)
				return
			}
			s.TryNext()
			s.Close()
		}
	}()
	wg.Wait()

	var lastID uint64
	for i := 0; i < total; i++ {
		ev, ok := prompt.TryNext()
		if !ok {
			t.Fatalf("prompt subscriber missing event %d/%d", i, total)
		}
		if ev.ID <= lastID {
			t.Fatalf("out of order: %d after %d", ev.ID, lastID)
		}
		lastID = ev.ID
	}
	if slow.Dropped() == 0 {
		t.Error("slow subscriber dropped nothing despite a tiny ring")
	}
	if got := int(slow.Dropped()) + slow.Buffered(); got != total {
		t.Errorf("slow dropped+buffered = %d, want %d", got, total)
	}
	b.Close()
}

func TestMetricsPublished(t *testing.T) {
	reg := telemetry.DefaultRegistry
	eventsBefore, _ := reg.Value("eventbus_events_total", TypeStoreSealed)
	droppedBefore, _ := reg.Value("eventbus_dropped_total", "slow_subscriber")

	b := New(8)
	defer b.Close()
	s, err := b.Subscribe(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	publish(t, b, TypeStoreSealed, nil)
	publish(t, b, TypeStoreSealed, nil) // overflows the 1-slot ring

	if got, _ := reg.Value("eventbus_events_total", TypeStoreSealed); got != eventsBefore+2 {
		t.Errorf("events_total delta = %v, want 2", got-eventsBefore)
	}
	if got, _ := reg.Value("eventbus_dropped_total", "slow_subscriber"); got != droppedBefore+1 {
		t.Errorf("dropped_total delta = %v, want 1", got-droppedBefore)
	}
}

// TryNext pops the next buffered event without blocking.
func (s *Subscriber) TryNext() (Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Event{}, false
	}
	ev := s.buf[s.head]
	s.buf[s.head] = Event{}
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	return ev, true
}

// Buffered returns how many events are waiting in the ring.
func (s *Subscriber) Buffered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
