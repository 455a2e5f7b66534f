package daemon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Frame is one Server-Sent-Events frame: an event (ID, Type, Data) or,
// when only Comment is set, a ": text" comment line.
type Frame struct {
	ID      uint64
	Type    string
	Data    string
	Comment string
}

// SSEParser assembles frames from the lines of an event stream.
type SSEParser struct {
	cur  Frame
	data []string
	any  bool
}

// Line consumes one line (without its newline). It returns a frame when
// the line completes one: a comment line at once, an event at the blank
// line that ends it.
func (p *SSEParser) Line(line string) (Frame, bool, error) {
	switch {
	case line == "":
		if !p.any {
			return Frame{}, false, nil
		}
		f := p.cur
		f.Data = strings.Join(p.data, "\n")
		*p = SSEParser{}
		return f, true, nil
	case strings.HasPrefix(line, ":"):
		return Frame{Comment: strings.TrimSpace(line[1:])}, true, nil
	}
	field, value, _ := strings.Cut(line, ":")
	value = strings.TrimPrefix(value, " ")
	p.any = true
	switch field {
	case "id":
		id, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return Frame{}, false, fmt.Errorf("sse: bad id %q", value)
		}
		p.cur.ID = id
	case "event":
		p.cur.Type = value
	case "data":
		p.data = append(p.data, value)
	}
	return Frame{}, false, nil
}

// Finished is what the watch stream says about one completed run.
type Finished struct {
	RunID  string
	System string
	Result string
	FOMs   map[string]float64
	// Read is when the client read the event's last line; Lag is Read
	// minus the time the daemon stamped on the event at publish.
	Read time.Time
	Lag  time.Duration
}

// Watch is one shared /v1/watch stream filtered to run.finished. Its
// reader hands each event to whoever waits for that run — the load
// generator learns of completions by push, never by polling.
type Watch struct {
	resp *http.Response
	done chan struct{}

	mu      sync.Mutex
	waiters map[string]chan Finished
	early   map[string]Finished // finished before anyone waited
	lastID  uint64
	err     error
}

// OpenWatch connects the stream and returns once the daemon has
// subscribed it (the ": watching" greeting), so no later event can be
// missed.
func OpenWatch(base string) (*Watch, error) {
	// A client of its own: the stream lives as long as the workload,
	// and must not occupy a request connection.
	resp, err := (&http.Client{}).Get(base + "/v1/watch?types=run.finished")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /v1/watch: status %d", resp.StatusCode)
	}
	w := &Watch{
		resp: resp, done: make(chan struct{}),
		waiters: map[string]chan Finished{}, early: map[string]Finished{},
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var p SSEParser
	for sc.Scan() {
		f, ok, err := p.Line(sc.Text())
		if err != nil {
			resp.Body.Close()
			return nil, err
		}
		if ok && f.Comment == "watching" {
			go w.read(sc, &p)
			return w, nil
		}
	}
	resp.Body.Close()
	return nil, fmt.Errorf("watch stream ended before its greeting: %v", sc.Err())
}

func (w *Watch) read(sc *bufio.Scanner, p *SSEParser) {
	defer close(w.done)
	for sc.Scan() {
		f, ok, err := p.Line(sc.Text())
		read := time.Now()
		if err != nil {
			w.fail(err)
			return
		}
		if !ok {
			continue
		}
		if err := w.frame(f, read); err != nil {
			w.fail(err)
			return
		}
	}
	w.fail(fmt.Errorf("watch stream ended: %v", sc.Err()))
}

// frame checks the stream's promises — ids strictly increasing, nothing
// dropped — and delivers a run.finished event.
func (w *Watch) frame(f Frame, read time.Time) error {
	if f.Comment != "" {
		if strings.HasPrefix(f.Comment, "dropped") || strings.HasPrefix(f.Comment, "replay gap") {
			return fmt.Errorf("watch stream lost events: %q", f.Comment)
		}
		return nil // heartbeat
	}
	var ev struct {
		Time time.Time         `json:"time"`
		Data map[string]string `json:"data"`
	}
	if err := json.Unmarshal([]byte(f.Data), &ev); err != nil {
		return fmt.Errorf("watch event %d: %w", f.ID, err)
	}
	fin := Finished{
		RunID: ev.Data["run_id"], System: ev.Data["system"], Result: ev.Data["result"],
		FOMs: map[string]float64{}, Read: read, Lag: read.Sub(ev.Time),
	}
	for k, v := range ev.Data {
		name, ok := strings.CutPrefix(k, "fom_")
		if !ok {
			continue
		}
		num, _, _ := strings.Cut(v, " ")
		x, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return fmt.Errorf("watch event %d: bad FOM %q", f.ID, v)
		}
		fin.FOMs[name] = x
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if f.ID <= w.lastID {
		return fmt.Errorf("watch ids not increasing: %d after %d", f.ID, w.lastID)
	}
	w.lastID = f.ID
	if f.Type != "run.finished" {
		return nil
	}
	if ch, ok := w.waiters[fin.RunID]; ok {
		delete(w.waiters, fin.RunID)
		ch <- fin
	} else {
		w.early[fin.RunID] = fin
	}
	return nil
}

func (w *Watch) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
	for id, ch := range w.waiters {
		delete(w.waiters, id)
		close(ch)
	}
}

// Await blocks until the run's run.finished event has been read. The
// event may have arrived before the caller learned the run's id.
func (w *Watch) Await(runID string, limit time.Duration) (Finished, error) {
	w.mu.Lock()
	if fin, ok := w.early[runID]; ok {
		delete(w.early, runID)
		w.mu.Unlock()
		return fin, nil
	}
	if w.err != nil {
		w.mu.Unlock()
		return Finished{}, w.err
	}
	ch := make(chan Finished, 1)
	w.waiters[runID] = ch
	w.mu.Unlock()
	select {
	case fin, ok := <-ch:
		if !ok {
			return Finished{}, w.Err()
		}
		return fin, nil
	case <-time.After(limit):
		return Finished{}, fmt.Errorf("no run.finished for %s within %s", runID, limit)
	}
}

// Err reports why the stream ended, if it has.
func (w *Watch) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close ends the stream and waits for its reader to stop. The error the
// reader then sees is the close itself, not a fault.
func (w *Watch) Close() {
	w.resp.Body.Close()
	<-w.done
}
