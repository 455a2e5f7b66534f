package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"repro/bench/daemon"
	"repro/bench/gen"
	"repro/internal/perfstore"
)

// sizes fixes how much work a run does. Op counts are fixed per run —
// not time-boxed, so a slower daemon is timed over the same requests —
// and scale with -seconds; the corpus and the boot count never shrink.
type sizes struct {
	corpus   int // seeded entries
	segments int // sealed segments the corpus is cut into
	setups   int // times set-up is repeated; setup_s is their median
	boots    int // cold boots; boot_first_query_ms is their median

	ingestRuns int    // ingest: runs
	ingestQ    [3]int // ingest: selects, aggregates, regressions afterwards
	queryQ     [3]int // query_*: selects, aggregates, regressions
	queryRuns  int    // query_*: runs afterwards
	cycles     int    // mixed: run+dashboard cycles
}

// sizesFor sets the counts so that each workload's measured phases take
// about `seconds` on the 2-core reference box.
func sizesFor(seconds int, smoke bool) sizes {
	if smoke {
		return sizes{
			corpus: 2000, segments: 4, setups: 1, boots: 1,
			ingestRuns: 36, ingestQ: [3]int{8, 4, 2},
			queryQ: [3]int{24, 12, 4}, queryRuns: 10, cycles: 9,
		}
	}
	// Every phase is several seconds long at the default 10: latency on
	// the shared reference box drifts over seconds, and a phase shorter
	// than that reads the drift instead of the daemon.
	s := seconds
	return sizes{
		corpus: 200_000, segments: 4, setups: 3, boots: 9,
		ingestRuns: 500 * s, ingestQ: [3]int{200 * s, 200 * s, 100 * s},
		queryQ: [3]int{150 * s, 60 * s, 15 * s}, queryRuns: 250 * s, cycles: 40 * s,
	}
}

// env is one workload's run.
type env struct {
	bin, out, work string
	workload       string
	seed           int64
	size           sizes
	smoke          bool

	probe *http.Client // boots and checks; each driven phase has its own client

	corpus *gen.Corpus
	model  *gen.Model
	seq    *gen.Sequence
	began  time.Time // before any run was submitted

	acked  map[[2]string]int // (system, benchmark) -> acknowledged runs
	driven int               // phases driven so far
	raw    rawData
	checks []string // failed output checks
}

// rawData is everything a run measured before any reduction. It is
// written beside the daemon logs, so a reported figure can always be
// traced back to the samples it came from.
type rawData struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	SetupS   []float64 `json:"setup_s"`
	BootMS   []float64 `json:"boot_ms"`
	RSSMB    []float64 `json:"rss_mb"` // VmRSS sampled through the driven phases
	PeakMB   float64   `json:"rss_peak_mb"`
	// DiskBytesPerEntry is taken after the daemon's graceful stop.
	DiskBytesPerEntry float64    `json:"disk_bytes_per_entry"`
	Ops               []opSample `json:"ops"`
}

// opSample is one executed operation. Times are nanoseconds; Start
// counts from the beginning of the op's phase.
type opSample struct {
	Phase  int    `json:"phase"`
	Index  int    `json:"i"`
	Kind   string `json:"kind"`
	Warmup bool   `json:"warmup,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Lag    int64  `json:"lag_ns,omitempty"` // runs: event stamped -> read by the client
}

// live is the one daemon running now. Whatever ends the run — a return,
// an error, a signal — ends it too: a benchd left behind would compete
// with the next run for the machine.
var live atomic.Pointer[daemon.Proc]

func killLive() {
	if p := live.Load(); p != nil {
		p.Kill()
	}
}

// state is the on-disk state of one daemon.
type state struct{ dir, perflog, tree, dataDir string }

func stateIn(dir string) state {
	return state{dir: dir, perflog: filepath.Join(dir, "perflogs"), tree: filepath.Join(dir, "install"), dataDir: filepath.Join(dir, "data")}
}

func (e *env) tiered() bool { return e.workload != "query_head" }
func (e *env) seeded() bool { return e.workload != "ingest" }
func (e *env) sealed() bool { return e.workload == "query_sealed" || e.workload == "mixed" }

// firstQuery is what a boot is timed to: the dashboard's aggregate over
// the whole store, so a lazily loading store pays its loading here.
var firstQuery = gen.AggregatePath()

// boot starts a daemon on st and waits for its first answer.
func (e *env) boot(st state) (*daemon.Proc, time.Duration, error) {
	cfg := daemon.Config{
		Bin: e.bin, Perflog: st.perflog, Tree: st.tree,
		Stderr: filepath.Join(e.out, e.workload+"-benchd.log"),
	}
	if e.tiered() {
		cfg.DataDir = st.dataDir
	}
	p, err := daemon.Start(cfg)
	if err != nil {
		return nil, 0, err
	}
	live.Store(p)
	d, err := p.AwaitFirst(e.probe, firstQuery, 2*time.Minute)
	if err != nil {
		p.Kill()
		return nil, 0, err
	}
	return p, d, nil
}

// newState makes fresh directories and, for seeded workloads, writes
// the corpus into them — sealed in `segments` equal time slices when the
// workload serves from segments. Sealing drives the store's own API, as
// a daemon that had ingested the corpus over its life would have.
func (e *env) newState() (state, error) {
	dir, err := os.MkdirTemp(e.work, "state-")
	if err != nil {
		return state{}, err
	}
	st := stateIn(dir)
	if !e.seeded() {
		return st, nil
	}
	if !e.sealed() {
		return st, e.corpus.Write(st.perflog, 0, e.corpus.N)
	}
	return st, sealCorpus(e.corpus, st.perflog, st.dataDir, e.size.segments)
}

func sealCorpus(c *gen.Corpus, perflog, dataDir string, segments int) error {
	store, err := perfstore.OpenTiered(perflog, dataDir)
	if err != nil {
		return err
	}
	for s := 0; s < segments; s++ {
		lo, hi := c.N*s/segments, c.N*(s+1)/segments
		if err := c.Write(perflog, lo, hi); err != nil {
			return err
		}
		if err := store.Sync(); err != nil {
			return err
		}
		if n, err := store.Seal(); err != nil || n != hi-lo {
			return fmt.Errorf("seal of entries [%d,%d): sealed %d: %v", lo, hi, n, err)
		}
	}
	return nil
}

// setups is how often set-up is repeated. An empty store sets up in a
// quarter of a second, most of it process start, so ingest repeats it
// more often for a median as steady as the others'.
func (e *env) setups() int {
	if e.seeded() || e.smoke {
		return e.size.setups
	}
	return 3 * e.size.setups
}

// setUp performs set-up `setups` times — state from nothing to a daemon
// that has answered its first query — and keeps the last daemon
// running. Building benchd is not part of it.
func (e *env) setUp(sampleBoots bool) (state, *daemon.Proc, error) {
	for i := 1; ; i++ {
		t0 := time.Now()
		st, err := e.newState()
		if err != nil {
			return state{}, nil, err
		}
		p, d, err := e.boot(st)
		if err != nil {
			return state{}, nil, err
		}
		e.raw.SetupS = append(e.raw.SetupS, time.Since(t0).Seconds())
		if sampleBoots {
			e.raw.BootMS = append(e.raw.BootMS, ms(d))
		}
		if i == e.setups() {
			return st, p, nil
		}
		if err := p.Stop(); err != nil {
			return state{}, nil, err
		}
		if err := os.RemoveAll(st.dir); err != nil {
			return state{}, nil, err
		}
	}
}

// bootUntil cold-boots st until `boots` samples exist, ending each
// daemon but the last with end (a graceful stop, or a kill when the
// boot being measured is crash recovery).
func (e *env) bootUntil(st state, end func(*daemon.Proc) error) (*daemon.Proc, error) {
	for {
		p, d, err := e.boot(st)
		if err != nil {
			return nil, err
		}
		e.raw.BootMS = append(e.raw.BootMS, ms(d))
		if len(e.raw.BootMS) >= e.size.boots {
			return p, nil
		}
		if err := end(p); err != nil {
			return nil, err
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measure runs the workload end to end and reduces it to its metrics.
func (e *env) measure() (Result, error) {
	e.probe = &http.Client{Timeout: 2 * time.Minute}
	e.acked = map[[2]string]int{}
	e.raw = rawData{Workload: e.workload, Seed: e.seed}
	n := 0
	if e.seeded() {
		n = e.size.corpus
	}
	e.corpus = gen.NewCorpus(e.seed, n)
	e.model = gen.NewModel(e.corpus)
	e.seq = gen.NewSequence(e.seed, e.corpus)
	os.Remove(filepath.Join(e.out, e.workload+"-benchd.log"))
	defer killLive()

	var err error
	switch e.workload {
	case "ingest":
		err = e.ingest()
	case "query_head", "query_sealed":
		err = e.query()
	case "mixed":
		err = e.mixed()
	}
	if err != nil {
		return Result{}, err
	}
	data, err := json.Marshal(e.raw)
	if err != nil {
		return Result{}, err
	}
	if err := os.WriteFile(filepath.Join(e.out, "raw-"+e.workload+".json"), data, 0o644); err != nil {
		return Result{}, err
	}
	for _, c := range e.checks {
		fmt.Printf("CHECK FAILED [%s] %s\n", e.workload, c)
	}
	res := reduce(e.raw)
	res.Correct = res.Correct && len(e.checks) == 0
	return res, nil
}

// ingest: an empty tiered store and a closed-loop client landing runs;
// then the read side and the reboot of what was just written.
func (e *env) ingest() error {
	st, p, err := e.setUp(false)
	if err != nil {
		return err
	}
	if err := e.driveAll(p, st); err != nil {
		return err
	}
	if err := p.Stop(); err != nil {
		return err
	}
	if e.raw.DiskBytesPerEntry, err = e.diskPerEntry(st); err != nil {
		return err
	}
	// The graceful stop sealed everything: these boots recover from
	// segments alone.
	if p, err = e.bootUntil(st, (*daemon.Proc).Stop); err != nil {
		return err
	}
	e.checkSealedBoot(p)
	return p.Stop()
}

// query: the seeded corpus served read-only by one closed-loop client —
// from the in-memory head after a text re-parse (query_head), or from
// sealed segments (query_sealed) — then the write path on that store.
func (e *env) query() error {
	st, p, err := e.setUp(true)
	if err != nil {
		return err
	}
	if err := p.Stop(); err != nil {
		return err
	}
	if p, err = e.bootUntil(st, (*daemon.Proc).Stop); err != nil {
		return err
	}
	if e.sealed() {
		e.checkSealedBoot(p)
	}
	if err := e.driveAll(p, st); err != nil {
		return err
	}
	if err := p.Stop(); err != nil {
		return err
	}
	e.raw.DiskBytesPerEntry, err = e.diskPerEntry(st)
	return err
}

// mixed: the sealed corpus with live writes beside the reads, then a
// crash: every boot timed here is a recovery from SIGKILL.
func (e *env) mixed() error {
	st, p, err := e.setUp(false)
	if err != nil {
		return err
	}
	e.checkSealedBoot(p)
	if err := e.driveAll(p, st); err != nil {
		return err
	}
	if err := p.Kill(); err != nil {
		return err
	}
	if p, err = e.bootUntil(st, (*daemon.Proc).Kill); err != nil {
		return err
	}
	e.checkDurable(p)
	if err := p.Stop(); err != nil {
		return err
	}
	e.raw.DiskBytesPerEntry, err = e.diskPerEntry(st)
	return err
}

// phases is what the workload asks of the daemon, in order: fixed
// request sequences, each driven by one closed-loop client. Every
// workload issues every class of request — the contract reports every
// metric from every workload — but each is built around one: the phase
// listed first is the one the workload exists for, what follows it reads
// or writes what that phase left.
//
// One client, not two: with two, the same code's run latency and
// throughput spread by a quarter from one set of ten runs to the next
// on the 2-core reference box (two requests in flight contend with the
// load generator for two cores), against under a tenth with one.
func (e *env) phases() [][]gen.Op {
	z := e.size
	switch e.workload {
	case "ingest":
		return [][]gen.Op{e.seq.Runs(z.ingestRuns), e.seq.Queries(z.ingestQ[0], z.ingestQ[1], z.ingestQ[2])}
	case "mixed":
		return [][]gen.Op{e.seq.Cycles(z.cycles)}
	default: // query_head, query_sealed
		return [][]gen.Op{e.seq.Queries(z.queryQ[0], z.queryQ[1], z.queryQ[2]), e.seq.Runs(z.queryRuns)}
	}
}

// driveAll drives the workload's phases, then reads the daemon's peak
// memory and checks the store it is left with.
func (e *env) driveAll(p *daemon.Proc, st state) error {
	for _, ops := range e.phases() {
		if err := e.drive(p, ops); err != nil {
			return err
		}
	}
	var err error
	if e.raw.PeakMB, err = p.PeakRSSMB(); err != nil {
		return err
	}
	e.checkStore(p, st)
	return nil
}

// maxFailures ends a phase early: a daemon that has stopped answering
// would otherwise be waited on once per remaining op.
const maxFailures = 20

// drive replays ops against the daemon as one closed-loop client: the
// next request goes out only when the previous one has completed, and a
// run has completed when its run.finished event is read from the watch
// stream. The first tenth is warm-up — executed, counted as attempted,
// not timed.
func (e *env) drive(p *daemon.Proc, ops []gen.Op) error {
	if e.began.IsZero() {
		e.began = time.Now().Add(-time.Second)
	}
	watch, err := daemon.OpenWatch(p.Base)
	if err != nil {
		return err
	}
	defer watch.Close()
	client := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	// The set-up before this left garbage behind (a sealed corpus is a few
	// hundred MB of it); collect it now, not beside the daemon's work.
	debug.FreeOSMemory()

	e.driven++
	failures := 0
	begin := time.Now()
	stopRSS := e.sampleRSS(p)
	defer stopRSS()
	for i, op := range ops {
		t0 := time.Now()
		d, lag, err := e.do(client, watch, p.Base, op, t0)
		e.raw.Ops = append(e.raw.Ops, opSample{
			Phase: e.driven, Index: i, Kind: op.Kind.String(), Warmup: i < len(ops)/10, Failed: err != nil,
			Start: int64(t0.Sub(begin)), Dur: int64(d), Lag: int64(lag),
		})
		if err != nil {
			fmt.Printf("  [%s] op %d (%s) failed: %v\n", e.workload, i, op.Kind, err)
			if failures++; failures >= maxFailures {
				return fmt.Errorf("%d operations failed; giving up on the phase", failures)
			}
		}
	}
	return watch.Err()
}

// sampleRSS reads the daemon's resident set ten times a second until
// the returned stop function is called.
func (e *env) sampleRSS(p *daemon.Proc) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := p.RSSMB(); err == nil {
				e.raw.RSSMB = append(e.raw.RSSMB, mb)
			}
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(quit); <-done }
}

// do performs one op begun at t0 and returns how long its user waited.
func (e *env) do(c *http.Client, watch *daemon.Watch, base string, op gen.Op, t0 time.Time) (d, lag time.Duration, err error) {
	if op.Kind != gen.Submit {
		resp, err := c.Get(base + op.Path)
		if err != nil {
			return 0, 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, 0, fmt.Errorf("GET %s: status %d", op.Path, resp.StatusCode)
		}
		return time.Since(t0), 0, nil
	}
	resp, err := c.Post(base+op.Path, "application/json", strings.NewReader(op.Body))
	if err != nil {
		return 0, 0, err
	}
	var accepted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return 0, 0, fmt.Errorf("POST %s: status %d", op.Path, resp.StatusCode)
	}
	if err != nil {
		return 0, 0, err
	}
	fin, err := watch.Await(accepted.ID, time.Minute)
	if err != nil {
		return 0, 0, err
	}
	if fin.Result != "pass" {
		return 0, 0, fmt.Errorf("run %s finished with result %q", accepted.ID, fin.Result)
	}
	e.acked[[2]string{op.System, op.Benchmark}]++
	if v, ok := fin.FOMs[gen.FOM]; ok {
		e.model.AddLive(fin.System, v)
	}
	return fin.Read.Sub(t0), fin.Lag, nil
}

func (e *env) check(ok bool, format string, args ...any) {
	if !ok {
		e.checks = append(e.checks, fmt.Sprintf(format, args...))
	}
}

func (e *env) ackedTotal() int {
	n := 0
	for _, c := range e.acked {
		n += c
	}
	return n
}

// getJSON fetches path and decodes the body into v.
func (e *env) getJSON(p *daemon.Proc, path string, v any) error {
	resp, err := e.probe.Get(p.Base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

type health struct {
	Entries     int   `json:"entries"`
	BytesParsed int64 `json:"bytes_parsed"`
}

// checkStore holds the daemon's answers against the generator's own
// record: the store has exactly the seeded plus the acknowledged
// entries, the perflog tree has a line for each, and twenty dashboard
// aggregates equal the means computed from the generated values.
func (e *env) checkStore(p *daemon.Proc, st state) {
	want := e.corpus.N + e.ackedTotal()
	var h health
	if err := e.getJSON(p, "/healthz", &h); err != nil {
		e.check(false, "healthz: %v", err)
		return
	}
	e.check(h.Entries == want, "store holds %d entries, want %d seeded + %d acknowledged", h.Entries, e.corpus.N, e.ackedTotal())
	lines, _, err := treeLines(st.perflog)
	e.check(err == nil && lines == want, "perflog tree holds %d lines (err %v), want %d", lines, err, want)

	for i := 0; i < 20; i++ {
		since := e.corpus.N * i / 20
		q := url.Values{"agg": {"mean"}, "fom": {gen.FOM}, "group_by": {"system"},
			"since": {gen.Start.Add(time.Duration(since) * time.Second).Format(time.RFC3339)}}
		var got struct {
			Aggregates []perfstore.Aggregate `json:"aggregates"`
		}
		if err := e.getJSON(p, "/v1/query?"+q.Encode(), &got); err != nil {
			e.check(false, "aggregate since %d: %v", since, err)
			continue
		}
		mean, count := e.model.Mean(since)
		e.check(len(got.Aggregates) == len(mean), "aggregate since %d: %d groups, want %d", since, len(got.Aggregates), len(mean))
		for _, a := range got.Aggregates {
			w, ok := mean[a.Group]
			e.check(ok && a.Count == count[a.Group] && math.Abs(a.Mean-w) <= 1e-9*math.Abs(w),
				"aggregate since %d, %s: mean %v over %d, want %v over %d", since, a.Group, a.Mean, a.Count, w, count[a.Group])
		}
	}
}

// checkSealedBoot: a daemon booted from segments parsed no perflog text.
func (e *env) checkSealedBoot(p *daemon.Proc) {
	var h health
	err := e.getJSON(p, "/healthz", &h)
	e.check(err == nil && h.BytesParsed == 0, "sealed boot parsed %d perflog bytes (err %v), want 0", h.BytesParsed, err)
}

// checkDurable: after SIGKILL and reboot, every acknowledged run is
// still there to be queried — acked implies durable.
func (e *env) checkDurable(p *daemon.Proc) {
	var h health
	err := e.getJSON(p, "/healthz", &h)
	want := e.corpus.N + e.ackedTotal()
	e.check(err == nil && h.Entries == want, "after crash the store holds %d entries (err %v), want %d", h.Entries, err, want)
	var got struct {
		Entries []struct {
			System    string `json:"system"`
			Benchmark string `json:"benchmark"`
		} `json:"entries"`
	}
	q := url.Values{"since": {e.began.UTC().Format(time.RFC3339)}}
	if err := e.getJSON(p, "/v1/query?"+q.Encode(), &got); err != nil {
		e.check(false, "select of live runs after crash: %v", err)
		return
	}
	found := map[[2]string]int{}
	for _, en := range got.Entries {
		found[[2]string{en.System, en.Benchmark}]++
	}
	for k, n := range e.acked {
		e.check(found[k] == n, "after crash %d of %d acknowledged %s runs on %s are queryable", found[k], n, k[1], k[0])
	}
}

// treeLines counts the lines and bytes of every perflog under root.
func treeLines(root string) (lines int, size int64, err error) {
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".log") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(data, []byte("\n"))
		size += int64(len(data))
		return nil
	})
	return lines, size, err
}

// diskPerEntry is what the stopped daemon left on disk for its results
// — the perflog tree plus, when tiered, the segment directory — per
// entry stored.
func (e *env) diskPerEntry(st state) (float64, error) {
	lines, size, err := treeLines(st.perflog)
	if err != nil {
		return 0, err
	}
	if e.tiered() {
		err = filepath.WalkDir(st.dataDir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			size += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return float64(size) / float64(lines), nil
}
