package service

// The chaos/soak suite: boot benchd against a seeded fault schedule,
// hammer it with concurrent submitters and readers, and assert the
// system's invariants held — no lost or duplicated results, no torn
// perflog lines, the store converges to filesystem truth, and every
// injected fault was either retried into success or surfaced as a
// typed error. Run under the race detector in CI:
//
//	CHAOS_SEED=42 go test -race -run Chaos -count=2 ./internal/service
//
// The seed fixes every fault decision (see faultinject), so a failure
// reproduces by exporting the same CHAOS_SEED.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eventbus"
	"repro/internal/faultinject"
	"repro/internal/fom"
	"repro/internal/obs"
	"repro/internal/perflog"
	"repro/internal/perfstore"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

// chaosSchedule arms distinct fault classes in the hot paths —
// transient scheduler rejections, transient build failures, short
// perfstore reads, and failed perflog commits — plus occasional
// submission-path faults so clients see honest 503s. perflog.sync
// faults fire against both write paths (the daemon's group-commit
// Writer and the out-of-band one-shot appender below); the point fires
// before any byte lands, so a faulted commit fails its whole batch
// without acknowledging or stranding a line, and the exact-accounting
// invariants below stay provable.
const chaosSchedule = "scheduler.submit:error:rate=0.25," +
	"buildsys.install:error:rate=0.2," +
	"perfstore.read:short:bytes=64:every=7," +
	"perflog.sync:error:every=6," +
	"service.submit:error:rate=0.15:times=8," +
	// Continuous-benchmarking paths: skipped scheduler ticks (schedules
	// fire late, never twice), failed event publishes (bounded so the
	// loss accounting below stays tight; each is retried by the
	// service's publish policy), and broken /v1/watch stream writes
	// (clients reconnect and replay via Last-Event-ID).
	"cbsched.tick:error:rate=0.15," +
	"eventbus.publish:error:rate=0.2:times=6," +
	"service.watchwrite:error:rate=0.03," +
	// Self-observability paths: skipped sampler ticks (history gets a
	// gap, alert evaluation waits for the next tick, state never tears),
	// failed history flushes (the previous on-disk snapshot survives
	// intact — atomic write), and failed pprof captures (exactly the two
	// capture attempts of the canary alert's fire, which must not stop
	// the alert itself from firing). every= rather than rate= so the
	// fired-counter assertions below hold even on a machine fast enough
	// to finish the soak in a handful of sampler ticks.
	"obs.sample:error:every=5," +
	"obs.historywrite:error:every=2," +
	"obs.profilecapture:error:times=2," +
	// Statistical-rigor path: a repetition inside an N-rep set fails.
	// The runner must either retry that repetition into a complete set
	// or fail the whole run — a persisted entry with a partial set, or
	// an n inflated by a retried rep counted twice, is a soak failure
	// (asserted below over every perflog line).
	"core.repetition:error:rate=0.15"

func TestChaosSoak(t *testing.T) { chaosSoak(t, "") }

// TestChaosSoakTiered runs the identical soak against a segment-backed
// store with an aggressive maintenance loop (tiny seal threshold, fast
// ticker, eager compaction) plus injected segment-write failures, so
// seals, compactions, and their retries all happen while the original
// fault schedule is firing.
func TestChaosSoakTiered(t *testing.T) { chaosSoak(t, t.TempDir()) }

func chaosSoak(t *testing.T, dataDir string) {
	seed := int64(42)
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
		}
		seed = n
	}
	dir := t.TempDir()
	perflogRoot := dir + "/perflogs"
	srv, err := New(Config{
		PerflogRoot: perflogRoot,
		InstallTree: dir + "/install",
		Workers:     4,
		QueueDepth:  32,
		DataDir:     dataDir,
		// Aggressive tiering so the soak crosses many seal/compact
		// cycles: seal every 4 head entries, compact at 2 segments,
		// tick the maintenance loop every 10ms.
		SealThreshold:       4,
		CompactSegments:     2,
		MaintenanceInterval: 10 * time.Millisecond,
		// Fast scheduler ticks and small subscriber rings so the
		// recurring schedule fires many times and the flapping watcher
		// genuinely overflows its ring during the soak.
		TickInterval:      25 * time.Millisecond,
		EventBuffer:       16,
		HeartbeatInterval: 100 * time.Millisecond,
		// Fast self-observability sampling with frequent history flushes
		// so the obs fault points get plenty of draws during the soak.
		SampleInterval:    25 * time.Millisecond,
		HistoryFlushEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A fast, shallow retry policy keeps the soak wall-clock short while
	// exercising both outcomes: most injected faults are absorbed by a
	// retry, and a few exhaust their attempts and surface as typed
	// failures.
	srv.runner.Retry = retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Metric assertions are delta-based so the suite is stable under
	// -count=2 (the registry is process-global).
	reg := telemetry.DefaultRegistry
	firedBefore := reg.SumValues("faultinject_fired_total")
	retriesBefore := reg.SumValues("retry_retries_total")
	classBefore := map[string]float64{}
	for _, pk := range [][2]string{
		{"scheduler.submit", "error"}, {"buildsys.install", "error"}, {"perfstore.read", "short"},
		{"perflog.sync", "error"},
		{"cbsched.tick", "error"}, {"eventbus.publish", "error"},
		{"obs.sample", "error"}, {"obs.profilecapture", "error"},
		{"core.repetition", "error"},
	} {
		v, _ := reg.Value("faultinject_fired_total", pk[0], pk[1])
		classBefore[pk[0]+"|"+pk[1]] = v
	}

	schedule := chaosSchedule
	if dataDir != "" {
		// The first two segment writes fail outright: the maintenance
		// loop must absorb the failed seals and succeed on later ticks.
		schedule += ",perfstore.segwrite:error:times=2"
	}
	loadFaults(t, seed, schedule)

	exhaustedBefore, _ := reg.Value("retry_exhausted_total", "service.publish")
	gapsBefore, _ := reg.Value("perfstore_commit_gaps_total")

	// A persistent healthy watcher: a reconnecting /v1/watch consumer
	// that must end up having seen run.finished for every completed run
	// (minus at most the publishes the bus provably lost to exhausted
	// retries — counted, never silent). Stream kills from injected
	// watchwrite faults are recovered via Last-Event-ID replay.
	watchCtx, watchCancel := context.WithCancel(context.Background())
	defer watchCancel()
	var watchMu sync.Mutex
	watchSeen := map[string]bool{}
	// The same watcher also follows the alert lifecycle. Last-Event-ID
	// replay can redeliver events across reconnects, so alert events are
	// deduplicated by bus event id before sequence checking — a healthy
	// consumer must never conclude an alert fired twice without an
	// intervening resolve.
	alertEvSeen := map[uint64]bool{}
	alertSeq := map[string][]string{} // alert_id -> ordered event types
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		var lastID uint64
		for watchCtx.Err() == nil {
			err := chaosWatchOnce(watchCtx, ts.URL, &lastID, func(ev eventbus.Event) {
				watchMu.Lock()
				defer watchMu.Unlock()
				switch ev.Type {
				case eventbus.TypeRunFinished:
					watchSeen[ev.Data["run_id"]] = true
				case eventbus.TypeAlertFired, eventbus.TypeAlertResolved:
					if alertEvSeen[ev.ID] {
						return // replayed duplicate
					}
					alertEvSeen[ev.ID] = true
					id := ev.Data["alert_id"]
					alertSeq[id] = append(alertSeq[id], ev.Type)
				}
			})
			if err != nil && watchCtx.Err() == nil {
				time.Sleep(10 * time.Millisecond) // reconnect with replay
			}
		}
	}()
	// Events published before the first subscription are live-only (no
	// Last-Event-ID yet, so nothing is replayed): wait for the watcher
	// to attach before generating load, as a real consumer would.
	for start := time.Now(); srv.bus.Subscribers() == 0; {
		if time.Since(start) > 30*time.Second {
			t.Fatal("healthy watcher never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	// A flapping slow subscriber: connects, reads sluggishly, stalls,
	// disconnects, repeats. Its ring (capacity 16) overflows and drops —
	// which must never slow ingest or cost the healthy watcher a thing.
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		for watchCtx.Err() == nil {
			req, err := http.NewRequestWithContext(watchCtx, http.MethodGet, ts.URL+"/v1/watch", nil)
			if err != nil {
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				time.Sleep(20 * time.Millisecond)
				continue
			}
			buf := make([]byte, 256)
			for i := 0; i < 3 && watchCtx.Err() == nil; i++ {
				resp.Body.Read(buf) // a sip...
				select {
				case <-watchCtx.Done():
				case <-time.After(150 * time.Millisecond): // ...then a stall
				}
			}
			resp.Body.Close()
		}
	}()

	// One recurring schedule runs the continuous loop during the soak:
	// its firings share the worker pool and fault schedule with the
	// client submissions.
	var sched struct {
		ID string `json:"id"`
	}
	{
		resp, err := client.Post(ts.URL+"/v1/schedules", "application/json",
			strings.NewReader(`{"benchmark":"babelstream-omp","system":"archer2","every":"300ms"}`))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("schedule create: %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &sched); err != nil {
			t.Fatal(err)
		}
	}

	// A canary alert rule that breaches on every sampler tick: it must
	// fire exactly once during the soak — skipped ticks from obs.sample
	// faults delay it, failed pprof captures must not suppress it, and
	// the healthy watcher must never see a duplicate fire.
	var canary struct {
		ID string `json:"id"`
	}
	{
		resp, err := client.Post(ts.URL+"/v1/alerts", "application/json",
			strings.NewReader(`{"name":"chaos-canary","metric":"benchd_queue_depth","kind":"threshold","op":"gt","value":-1}`))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("alert create: %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &canary); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent submitters; each retries 503s after the server's own
	// Retry-After hint, so injected submit faults and queue-full both
	// resolve to an accepted run or a test failure.
	const clients, runsPerClient = 3, 8
	systems := []string{"archer2", "csd3", "cosma8"}
	var mu sync.Mutex
	var ids []string
	var unavailable int
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < runsPerClient; i++ {
				// Every other submission asks for a 3-repetition protocol
				// (one warm-up), so the core.repetition fault point draws
				// throughout the soak and the perflog invariants below see
				// a mix of single and repeated runs.
				body := fmt.Sprintf(`{"benchmark": "babelstream-omp", "system": %q}`, systems[(c+i)%len(systems)])
				if i%2 == 0 {
					body = fmt.Sprintf(`{"benchmark": "babelstream-omp", "system": %q, "repetitions": 3, "warmup": 1}`,
						systems[(c+i)%len(systems)])
				}
				accepted := false
				for attempt := 0; attempt < 50 && !accepted; attempt++ {
					resp, err := client.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
					if err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					data, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusAccepted:
						var v struct {
							ID string `json:"id"`
						}
						if err := json.Unmarshal(data, &v); err != nil {
							t.Errorf("client %d: bad accept body: %v", c, err)
							return
						}
						mu.Lock()
						ids = append(ids, v.ID)
						mu.Unlock()
						accepted = true
					case http.StatusServiceUnavailable:
						if resp.Header.Get("Retry-After") == "" {
							t.Errorf("client %d: 503 without Retry-After", c)
						}
						mu.Lock()
						unavailable++
						mu.Unlock()
						time.Sleep(5 * time.Millisecond)
					default:
						t.Errorf("client %d: status %d: %s", c, resp.StatusCode, data)
						return
					}
				}
				if !accepted {
					t.Errorf("client %d: submission never accepted", c)
					return
				}
			}
		}(c)
	}

	// An out-of-band appender plays the benchctl-invocation role: one-shot
	// perflog.Append calls against the same files the daemon's
	// group-commit writer holds open. These bytes reach the store only by
	// being parsed — which keeps the perfstore.read fault class drawing
	// now that the daemon's own entries enter the store pre-parsed — and
	// they move file offsets underneath the writer. Each landed append is
	// followed by a daemon commit to the same file, which finds the
	// out-of-band line between the store's checkpoint and its own bytes
	// and has the store parse that gap before indexing the commit (unless
	// a maintenance sync got there first). An injected perflog.sync fault
	// fails either append cleanly (nothing lands), so successes are
	// countable exactly.
	oobLanded, writerLanded := 0, 0
	var oobWG sync.WaitGroup
	oobWG.Add(1)
	go func() {
		defer oobWG.Done()
		for i := 0; i < 10; i++ {
			e := &perflog.Entry{
				Time:      time.Now().UTC(),
				Benchmark: "babelstream-omp",
				System:    systems[i%len(systems)],
				Partition: "compute",
				Environ:   "gcc",
				Spec:      "babelstream@4.0%gcc",
				JobID:     100000 + i,
				Result:    "pass",
				FOMs:      map[string]fom.Value{"oob_mbps": {Name: "oob_mbps", Value: 1000 + float64(i), Unit: "MB/s"}},
				Extra:     map[string]string{"source": "benchctl-oob"},
			}
			err := perflog.Append(perflogRoot, e.System, e.Benchmark, e)
			switch {
			case err == nil:
				oobLanded++
				d := *e
				d.JobID += 1000
				d.Extra = map[string]string{"source": "daemon-writer"}
				switch werr := srv.writer.Append(d.System, d.Benchmark, &d); {
				case werr == nil:
					writerLanded++
				case !faultinject.Is(werr):
					t.Errorf("daemon append failed for a non-injected reason: %v", werr)
					return
				}
			case !faultinject.Is(err):
				t.Errorf("out-of-band append failed for a non-injected reason: %v", err)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Concurrent readers keep the query, metrics, and health paths hot
	// while faults fire; anything other than 200 or a well-formed 503
	// fails the suite.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			paths := []string{"/v1/query?benchmark=babelstream-omp", "/metrics", "/healthz", "/v1/runs"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(ts.URL + paths[i%len(paths)])
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("reader: %s -> %d", paths[i%len(paths)], resp.StatusCode)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	oobWG.Wait()
	close(stop)
	readers.Wait()

	// Every accepted run must reach a terminal state.
	deadline := time.Now().Add(120 * time.Second)
	completed, failed := 0, 0
	for _, id := range ids {
		for {
			var v runView
			if code := getJSON(t, ts.URL+"/v1/runs/"+id, &v); code != http.StatusOK {
				t.Fatalf("poll %s: status %d", id, code)
			}
			if v.Status == StatusCompleted {
				completed++
				break
			}
			if v.Status == StatusFailed {
				failed++
				// A failed run must carry a typed injected fault, not an
				// unexplained error.
				if !strings.Contains(v.Error, "faultinject") {
					t.Errorf("run %s failed for a non-injected reason: %s", id, v.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %s stuck in %s", id, v.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	t.Logf("chaos seed=%d: %d accepted, %d completed, %d failed, %d transient 503s", seed, len(ids), completed, failed, unavailable)
	if len(ids) != clients*runsPerClient {
		t.Errorf("accepted %d runs, want %d", len(ids), clients*runsPerClient)
	}

	// A fast machine can drain the client load before the schedule's
	// first interval elapses; hold the door until it has fired at least
	// once so the scheduled path is exercised on every soak.
	for {
		var all struct {
			Runs []runView `json:"runs"`
		}
		if code := getJSON(t, ts.URL+"/v1/runs", &all); code != http.StatusOK {
			t.Fatalf("list runs: %d", code)
		}
		if len(all.Runs) > len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recurring schedule never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Retire the recurring schedule (no new firings), then wait for
	// EVERY run — client-submitted and scheduled alike — to go terminal.
	{
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/schedules/"+sched.ID, nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("schedule delete: %d", resp.StatusCode)
		}
	}
	completedAll := map[string]bool{}
	scheduled := 0
	for {
		var all struct {
			Runs []runView `json:"runs"`
		}
		if code := getJSON(t, ts.URL+"/v1/runs", &all); code != http.StatusOK {
			t.Fatalf("list runs: %d", code)
		}
		pending := 0
		completedAll = map[string]bool{}
		scheduled = 0
		for _, v := range all.Runs {
			switch v.Status {
			case StatusCompleted:
				completedAll[v.ID] = true
			case StatusFailed:
			default:
				pending++
			}
		}
		scheduled = len(all.Runs) - len(ids)
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d runs still pending at deadline", pending)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if scheduled <= 0 {
		t.Errorf("the recurring schedule fired no runs during the soak")
	}

	// Healthy-watcher invariant: every completed run's run.finished was
	// delivered — the only permissible misses are publishes the bus
	// provably lost to exhausted retries (visible in metrics), never a
	// silent drop caused by the flapping slow subscriber.
	watchDeadline := time.Now().Add(60 * time.Second)
	for {
		exhausted, _ := reg.Value("retry_exhausted_total", "service.publish")
		lost := exhausted - exhaustedBefore
		watchMu.Lock()
		missing := 0
		for id := range completedAll {
			if !watchSeen[id] {
				missing++
			}
		}
		seen := len(watchSeen)
		watchMu.Unlock()
		if float64(missing) <= lost {
			t.Logf("watcher saw %d run.finished events; %d missing, %g publishes exhausted (scheduled runs: %d)",
				seen, missing, lost, scheduled)
			break
		}
		if time.Now().After(watchDeadline) {
			watchMu.Lock()
			var missIDs []string
			for id := range completedAll {
				if !watchSeen[id] {
					missIDs = append(missIDs, id)
				}
			}
			watchMu.Unlock()
			sort.Strings(missIDs)
			t.Fatalf("healthy watcher missing %d run.finished events (%v) but only %g publishes were lost to exhausted retries",
				missing, missIDs, lost)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The canary rule must be firing by the end of the soak — obs.sample
	// faults only skip ticks, they never lose the breach.
	{
		var st struct {
			State string `json:"state"`
			Fires int    `json:"fires"`
		}
		if code := getJSON(t, ts.URL+"/v1/alerts/"+canary.ID, &st); code != http.StatusOK {
			t.Fatalf("canary alert get: %d", code)
		}
		if st.State != "firing" || st.Fires != 1 {
			t.Errorf("canary alert = %+v, want firing with exactly 1 fire", st)
		}
	}
	watchCancel()
	watchWG.Wait()

	// Alert-stream invariant: after deduplicating replays by event id,
	// no alert ever fired twice without an intervening resolve. The
	// canary never recovers, so its deduped sequence is at most one
	// fired event (at most, not exactly: the one publish may be lost to
	// exhausted retries like any other event — counted above, and the
	// rule state check just before is the authoritative fire count).
	watchMu.Lock()
	for id, seq := range alertSeq {
		firing := false
		for _, typ := range seq {
			if typ == eventbus.TypeAlertFired {
				if firing {
					t.Errorf("alert %s fired twice without a resolve: %v", id, seq)
				}
				firing = true
			} else {
				firing = false
			}
		}
	}
	canarySeq := append([]string(nil), alertSeq[canary.ID]...)
	watchMu.Unlock()
	if len(canarySeq) > 1 {
		t.Errorf("canary alert event sequence = %v, want at most one fired", canarySeq)
	}
	t.Logf("canary alert events seen by healthy watcher: %v", canarySeq)

	// Shutdown must drain cleanly while the schedule is still armed.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under faults: %v", err)
	}

	// Invariant: no torn or corrupt perflog lines — every byte of every
	// file is a whole line that parses.
	entries := wholeTree(t, perflogRoot)
	// Invariant: exactly one line per completed run — client-submitted
	// and scheduled both — plus one per acknowledged out-of-band and
	// direct writer append; nothing lost, nothing duplicated, even with
	// perflog.sync faults failing whole commit batches along the way
	// (acked ⇒ durable, faulted ⇒ nothing landed).
	if want := len(completedAll) + oobLanded + writerLanded; len(entries) != want {
		t.Errorf("perflog holds %d entries, want %d (%d completed runs + %d out-of-band + %d writer appends) — lost or duplicated results",
			len(entries), want, len(completedAll), oobLanded, writerLanded)
	}
	// Invariant: no partial repetition sets and no double-counted reps.
	// An entry that declares a repetition protocol carries a complete,
	// decodable stats block for every FOM, with n exactly equal to the
	// declared measured count — a repetition retried after an injected
	// core.repetition fault contributes once, never twice; a set the
	// retries could not complete produced no entry at all.
	repeated := 0
	for _, e := range entries {
		reps, declared := e.Extra["repetitions"]
		foms := e.RepFOMs()
		if !declared {
			if len(foms) != 0 {
				t.Errorf("entry %s/%s job %d: rep stats without a declared protocol", e.System, e.Benchmark, e.JobID)
			}
			continue
		}
		repeated++
		want, err := strconv.Atoi(reps)
		if err != nil {
			t.Errorf("entry %s/%s job %d: bad repetitions extra %q", e.System, e.Benchmark, e.JobID, reps)
			continue
		}
		if len(foms) == 0 {
			t.Errorf("entry %s/%s job %d: declared %d repetitions but has no stats block", e.System, e.Benchmark, e.JobID, want)
		}
		for _, fomName := range foms {
			st, ok := e.RepStats(fomName)
			if !ok {
				t.Errorf("entry %s/%s job %d: partial stats block for %s", e.System, e.Benchmark, e.JobID, fomName)
				continue
			}
			if st.N != want {
				t.Errorf("entry %s/%s job %d: %s has n=%d, protocol declared %d (lost or double-counted repetition)",
					e.System, e.Benchmark, e.JobID, fomName, st.N, want)
			}
			if !(st.CILo <= st.Mean && st.Mean <= st.CIHi) {
				t.Errorf("entry %s/%s job %d: %s CI [%g, %g] does not bracket mean %g",
					e.System, e.Benchmark, e.JobID, fomName, st.CILo, st.CIHi, st.Mean)
			}
		}
	}
	if repeated == 0 {
		t.Error("no repetition-protocol entries survived the soak")
	}

	// Invariant: with faults cleared, both the server's store and a
	// cold-opened one converge to filesystem truth (short reads only
	// ever deferred ingest, never dropped it).
	faultinject.Reset()
	if err := srv.Store().Sync(); err != nil {
		t.Fatalf("post-soak sync: %v", err)
	}
	if got := srv.Store().Len(); got != len(entries) {
		t.Errorf("server store has %d entries, filesystem has %d", got, len(entries))
	}
	fresh := perfstore.Open(perflogRoot)
	if err := fresh.Sync(); err != nil {
		t.Fatalf("cold store sync: %v", err)
	}
	if fresh.Len() != srv.Store().Len() {
		t.Errorf("cold store has %d entries, warm store has %d", fresh.Len(), srv.Store().Len())
	}

	// Invariant: the injected faults and the retries that absorbed them
	// are visible in /metrics — all three required fault classes fired.
	if fired := reg.SumValues("faultinject_fired_total") - firedBefore; fired <= 0 {
		t.Error("no injected faults recorded in faultinject_fired_total")
	}
	if retries := reg.SumValues("retry_retries_total") - retriesBefore; retries <= 0 {
		t.Error("no retries recorded in retry_retries_total")
	}
	if gaps, _ := reg.Value("perfstore_commit_gaps_total"); gaps-gapsBefore <= 0 {
		t.Error("no commit found out-of-band lines ahead of it: the gap parse never ran")
	} else {
		t.Logf("commits that parsed an out-of-band gap first: %g", gaps-gapsBefore)
	}
	for _, pk := range [][2]string{
		{"scheduler.submit", "error"}, {"buildsys.install", "error"}, {"perfstore.read", "short"},
		{"perflog.sync", "error"},
		{"cbsched.tick", "error"}, {"eventbus.publish", "error"},
		{"obs.sample", "error"}, {"obs.profilecapture", "error"},
		{"core.repetition", "error"},
	} {
		v, _ := reg.Value("faultinject_fired_total", pk[0], pk[1])
		if v-classBefore[pk[0]+"|"+pk[1]] <= 0 {
			t.Errorf("fault class %s:%s never fired during the soak", pk[0], pk[1])
		}
	}
	// watchwrite fires probabilistically per stream write; with flapping
	// and reconnecting consumers it is overwhelmingly likely but not
	// guaranteed, so its count is reported rather than asserted.
	if v, _ := reg.Value("faultinject_fired_total", "service.watchwrite", "error"); v > 0 {
		t.Logf("service.watchwrite faults fired: %g", v)
	}

	// Tiered-only invariants: seal the warm store's remaining head (the
	// post-soak sync may have ingested tails the shutdown-time seal
	// predates), then a cold tiered boot must recover the whole store
	// from segment headers without re-parsing a single perflog byte.
	if dataDir != "" {
		if _, err := srv.Store().Seal(); err != nil {
			t.Fatalf("post-soak seal: %v", err)
		}
		cold, err := perfstore.OpenTiered(perflogRoot, dataDir)
		if err != nil {
			t.Fatalf("cold tiered open after soak: %v", err)
		}
		if err := cold.Sync(); err != nil {
			t.Fatalf("cold tiered sync: %v", err)
		}
		st := cold.Stats()
		if st.BytesParsed != 0 {
			t.Errorf("cold tiered boot re-parsed %d perflog bytes, want 0", st.BytesParsed)
		}
		if cold.Len() != srv.Store().Len() {
			t.Errorf("cold tiered store has %d entries, warm store has %d", cold.Len(), srv.Store().Len())
		}
		if v, _ := reg.Value("faultinject_fired_total", "perfstore.segwrite", "error"); v <= 0 {
			t.Error("injected segment-write faults never fired during the tiered soak")
		}
		// No torn metrics-history file: every flush was atomic, so even
		// with every second history write failing (including possibly
		// the final shutdown flush) the on-disk snapshot parses
		// wholesale and carries real samples from some successful flush.
		series, samples, err := obs.LoadHistory(filepath.Join(dataDir, obs.HistoryFile))
		if err != nil {
			t.Fatalf("metrics history torn after soak: %v", err)
		}
		if len(series) == 0 || samples == 0 {
			t.Errorf("metrics history empty after soak: %d series, %d samples", len(series), samples)
		}
		if v, _ := reg.Value("faultinject_fired_total", "obs.historywrite", "error"); v <= 0 {
			t.Error("injected history-write faults never fired during the tiered soak")
		}
	}
}

// chaosWatchOnce runs one /v1/watch connection for the healthy soak
// watcher: subscribe to run.finished and the alert lifecycle (resuming
// from *lastID), feed every event to onEvent, and return when the
// stream breaks — from an injected watchwrite fault, a write deadline,
// or shutdown — so the caller can reconnect and replay.
func chaosWatchOnce(ctx context.Context, base string, lastID *uint64, onEvent func(ev eventbus.Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/watch?types=run.finished,alert.fired,alert.resolved", nil)
	if err != nil {
		return err
	}
	// Always sent — an explicit 0 asks the server to replay everything
	// it retains, so a stream killed before the first event is still
	// recovered on reconnect.
	req.Header.Set("Last-Event-ID", strconv.FormatUint(*lastID, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("watch: %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "" && data != "":
			var ev eventbus.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return err
			}
			data = ""
			if ev.ID > *lastID {
				*lastID = ev.ID
			}
			onEvent(ev)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended")
}
