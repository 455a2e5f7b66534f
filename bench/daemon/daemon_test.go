package daemon

import (
	"strings"
	"testing"
	"time"
)

func TestSSEParser(t *testing.T) {
	stream := ": watching\n\nid: 4\nevent: run.finished\ndata: {\"a\":1}\n\n: heartbeat\n\nid: 9\nevent: run.finished\ndata: line1\ndata: line2\n\n\n"
	var p SSEParser
	var got []Frame
	for _, line := range strings.Split(stream, "\n") {
		f, ok, err := p.Line(line)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			got = append(got, f)
		}
	}
	want := []Frame{
		{Comment: "watching"},
		{ID: 4, Type: "run.finished", Data: `{"a":1}`},
		{Comment: "heartbeat"},
		{ID: 9, Type: "run.finished", Data: "line1\nline2"},
	}
	if len(got) != len(want) {
		t.Fatalf("%d frames, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, _, err := p.Line("id: x"); err == nil {
		t.Error("a non-numeric id must be an error")
	}
}

func newWatch() *Watch {
	return &Watch{waiters: map[string]chan Finished{}, early: map[string]Finished{}}
}

func TestWatchFrames(t *testing.T) {
	w := newWatch()
	ev := func(id uint64, run string) Frame {
		return Frame{ID: id, Type: "run.finished", Data: `{"time":"2026-01-01T00:00:00Z","data":{"run_id":"` + run +
			`","system":"archer2","result":"pass","fom_l0":"93.5 MDOF/s"}}`}
	}
	// An event that arrives before anyone waits is kept for its waiter.
	if err := w.frame(ev(2, "run-000001"), time.Date(2026, 1, 1, 0, 0, 0, 5e6, time.UTC)); err != nil {
		t.Fatal(err)
	}
	fin, err := w.Await("run-000001", time.Second)
	if err != nil || fin.Result != "pass" || fin.FOMs["l0"] != 93.5 || fin.Lag != 5*time.Millisecond {
		t.Fatalf("fin %+v err %v", fin, err)
	}
	// Heartbeats pass; ids must increase; a disclosed drop is an error.
	if err := w.frame(Frame{Comment: "heartbeat"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := w.frame(ev(2, "run-000002"), time.Now()); err == nil {
		t.Error("a repeated id must be an error")
	}
	if err := w.frame(Frame{Comment: "dropped (slow consumer): events before this point were evicted"}, time.Now()); err == nil {
		t.Error("a dropped comment must be an error")
	}
}

func TestParseStatusMB(t *testing.T) {
	status := []byte("Name:\tbenchd\nVmHWM:\t  757016 kB\nVmRSS:\t  615888 kB\n")
	if mb, err := parseStatusMB(status, "VmHWM"); err != nil || mb != 757016.0/1024 {
		t.Errorf("VmHWM = %v, %v", mb, err)
	}
	if mb, err := parseStatusMB(status, "VmRSS"); err != nil || mb != 615888.0/1024 {
		t.Errorf("VmRSS = %v, %v", mb, err)
	}
	if _, err := parseStatusMB(status, "VmSwap"); err == nil {
		t.Error("a missing field must be an error")
	}
}

func TestFreePort(t *testing.T) {
	port, err := freePort()
	if err != nil || port == 0 {
		t.Fatalf("port %d, err %v", port, err)
	}
}
