package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/bench/gen"
	"repro/bench/measure"
	"repro/internal/eventbus"
	"repro/internal/service"
)

// traceOps is how much of a workload's sequence the walk replays.
const traceOps = 2000

// traceRun is -trace: the per-layer walk. It measures nothing end to
// end. It runs three things and derives every per-layer metric from
// them:
//
//   - fixed probes of each layer (micro.go), identical for every
//     workload;
//   - the named workload's first traceOps operations three times
//     in-process — through the real service handlers, then through the
//     walker with spans on (written to trace-<workload>.json), then with
//     spans off — which gives the service layer's share of an operation
//     and the cost of tracing itself;
//   - the same operations over HTTP against a benchd subprocess, with a
//     /metrics scrape on either side, which gives what HTTP adds and the
//     daemon's own counters.
func (e *env) traceRun() (Result, error) {
	e.probe = &http.Client{Timeout: 2 * time.Minute}
	e.acked = map[[2]string]int{}
	e.raw = rawData{Workload: e.workload, Seed: e.seed}
	defer killLive()
	m := metrics{}
	p := probesFor(e.smoke)
	full := gen.NewCorpus(e.seed, e.size.corpus)
	scratch, err := os.MkdirTemp(e.work, "trace-")
	if err != nil {
		return Result{}, err
	}

	if err := probeCheap(m, p, full); err != nil {
		return Result{}, err
	}
	if err := probeWritePath(m, p, e.seed, filepath.Join(scratch, "write")); err != nil {
		return Result{}, err
	}
	big := stateIn(filepath.Join(scratch, "big"))
	if err := sealCorpus(full, big.perflog, big.dataDir, e.size.segments); err != nil {
		return Result{}, err
	}
	if err := probeStores(m, p, e.seed, full, big, e.size.segments, scratch); err != nil {
		return Result{}, err
	}
	if err := probeService(m, p, e.seed, full, big); err != nil {
		return Result{}, err
	}

	// The workload's own state and sequence, as the end-to-end run
	// builds them; the seeded workloads reuse the sealed corpus above.
	e.corpus = full
	st := big
	if !e.seeded() {
		e.corpus = gen.NewCorpus(e.seed, 0)
		st = stateIn(filepath.Join(scratch, "empty"))
	}
	e.model = gen.NewModel(e.corpus)
	e.seq = gen.NewSequence(e.seed, e.corpus)
	var ops []gen.Op
	for _, ph := range e.phases() {
		ops = append(ops, ph...)
	}
	n := traceOps
	if e.smoke {
		n = 40
	}
	ops = ops[:min(n, len(ops))]

	// The probes' stores are garbage now; collect them before timing, so
	// the passes below run in a process no heavier than the daemon.
	debug.FreeOSMemory()
	inproc, walkOn, walkOff, err := e.walkWorkload(st, ops)
	if err != nil {
		return Result{}, err
	}
	on, off, in := typical(ops, walkOn), typical(ops, walkOff), typical(ops, inproc)
	m["trace.overhead_share"] = Metric{(on - off) / off, "ratio"}
	m["service.overhead_share"] = Metric{(in - off) / in, "ratio"}
	m["trace.ops"] = Metric{float64(len(ops)), "count"}

	if err := e.scrapeWorkload(m, st, ops, inproc); err != nil {
		return Result{}, err
	}
	for _, c := range e.checks {
		fmt.Printf("CHECK FAILED [%s] %s\n", e.workload, c)
	}
	failed := 0
	for _, op := range e.raw.Ops {
		if op.Failed {
			failed++
		}
	}
	// Three in-process passes and one over HTTP; an in-process failure
	// ends the run with an error instead of being counted.
	return Result{Correct: failed == 0 && len(e.checks) == 0, Attempted: 3*len(ops) + len(e.raw.Ops), Failed: failed, Metrics: m}, nil
}

// typical is the time the ops take when each takes its class's median:
// the sum a pause in one op cannot move.
func typical(ops []gen.Op, ds []time.Duration) float64 {
	byClass := map[gen.Kind][]float64{}
	for i, op := range ops {
		byClass[op.Kind] = append(byClass[op.Kind], float64(ds[i]))
	}
	var total float64
	for _, v := range byClass {
		total += float64(len(v)) * measure.Median(v)
	}
	return total
}

// inprocess drives the real service handlers without a socket.
type inprocess struct {
	srv *service.Server
	h   http.Handler
	sub *eventbus.Subscriber
}

func newInprocess(st state, tiered bool) (*inprocess, error) {
	cfg := service.Config{PerflogRoot: st.perflog, InstallTree: st.tree, Logger: quiet}
	if tiered {
		cfg.DataDir = st.dataDir
	}
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	sub, err := srv.Bus().Subscribe([]string{eventbus.TypeRunFinished}, 0)
	if err != nil {
		return nil, err
	}
	return &inprocess{srv: srv, h: srv.Handler(), sub: sub}, nil
}

func (p *inprocess) close() error {
	p.sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return p.srv.Shutdown(ctx)
}

// sink is the least an http.ResponseWriter can be; it keeps the body
// only when asked to (a 202's run id).
type sink struct {
	header http.Header
	code   int
	keep   bool
	body   []byte
}

func (s *sink) Header() http.Header { return s.header }
func (s *sink) WriteHeader(c int)   { s.code = c }
func (s *sink) Write(b []byte) (int, error) {
	if s.keep {
		s.body = append(s.body, b...)
	}
	return len(b), nil
}

// serve passes one request to the handler and returns its status, how
// long the handler took, and the body if kept.
func (p *inprocess) serve(op gen.Op) (*sink, time.Duration, error) {
	method, body := http.MethodGet, ""
	if op.Kind == gen.Submit {
		method, body = http.MethodPost, op.Body
	}
	req, err := http.NewRequest(method, "http://benchd"+op.Path, strings.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	w := &sink{header: http.Header{}, code: http.StatusOK, keep: op.Kind == gen.Submit}
	t0 := time.Now()
	p.h.ServeHTTP(w, req)
	return w, time.Since(t0), nil
}

// do performs one op as its user would see it in-process: a query is
// its handler; a run is its handler plus the wait for run.finished. It
// also returns the handler's own time.
func (p *inprocess) do(op gen.Op) (total, handler time.Duration, err error) {
	t0 := time.Now()
	w, handler, err := p.serve(op)
	if err != nil {
		return 0, 0, err
	}
	if op.Kind != gen.Submit {
		if w.code != http.StatusOK {
			return 0, 0, fmt.Errorf("%s: status %d", op.Path, w.code)
		}
		return handler, handler, nil
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.body, &accepted); err != nil || w.code != http.StatusAccepted {
		return 0, 0, fmt.Errorf("POST %s: status %d: %v", op.Path, w.code, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for {
		ev, err := p.sub.Next(ctx)
		if err != nil {
			return 0, 0, fmt.Errorf("waiting for %s: %w", accepted.ID, err)
		}
		if ev.Data["run_id"] == accepted.ID {
			if ev.Data["result"] != "pass" {
				return 0, 0, fmt.Errorf("run %s finished with result %q", accepted.ID, ev.Data["result"])
			}
			return time.Since(t0), handler, nil
		}
	}
}

// probeService times the HTTP handlers in-process over the sealed
// corpus: a select, an aggregate that misses the cache, one that hits
// it, and a run submission (the handler alone: validation, pre-flight,
// enqueue).
func probeService(m metrics, p probes, seed int64, c *gen.Corpus, big state) error {
	ip, err := newInprocess(big, true)
	if err != nil {
		return err
	}
	defer ip.close()
	seq := gen.NewSequence(seed, c)
	lat := map[string][]float64{}
	for _, op := range seq.Queries(p.queries[0], p.queries[1], 0) {
		_, d, err := ip.do(op)
		if err != nil {
			return err
		}
		lat[op.Kind.String()] = append(lat[op.Kind.String()], float64(d))
	}
	hit := gen.Op{Kind: gen.Aggregate, Path: gen.AggregatePath()}
	for i := 0; i <= p.queries[0]; i++ {
		_, d, err := ip.do(hit)
		if err != nil {
			return err
		}
		if i > 0 { // the first one fills the cache
			lat["hit"] = append(lat["hit"], float64(d))
		}
	}
	for _, op := range seq.Runs(p.runs / 3) {
		_, d, err := ip.do(op)
		if err != nil {
			return err
		}
		lat["submit"] = append(lat["submit"], float64(d))
	}
	m.us("service.select_handler_us", measure.Median(lat["select"]))
	m.us("service.aggregate_miss_us", measure.Median(lat["aggregate"]))
	m.us("service.aggregate_hit_us", measure.Median(lat["hit"]))
	m.us("service.submit_handler_us", measure.Median(lat["submit"]))
	return nil
}

// walkWorkload replays ops over st three times and returns each op's
// duration in each pass. The spans of the second pass, and the handler
// times of the first as root spans named service.<class>_handler, go to
// trace-<workload>.json.
func (e *env) walkWorkload(st state, ops []gen.Op) (inproc, walkOn, walkOff []time.Duration, err error) {
	ip, err := newInprocess(st, e.tiered())
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		if cerr := ip.close(); err == nil {
			err = cerr
		}
	}()
	rec := measure.NewRecorder()
	inproc = make([]time.Duration, len(ops))
	for i, op := range ops {
		s := rec.Start(i+1, 0, "service."+op.Kind.String()+"_handler")
		d, _, derr := ip.do(op)
		rec.End(s)
		if derr != nil {
			return nil, nil, nil, fmt.Errorf("in-process op %d (%s): %w", i, op.Kind, derr)
		}
		inproc[i] = d
	}
	tier := "head"
	if e.sealed() {
		tier = "sealed"
	}
	w, err := newWalker(ip.srv.Store(), tier, st.tree)
	if err != nil {
		return nil, nil, nil, err
	}
	defer w.close()
	w.rec = rec
	if walkOn, err = w.replay(ops); err != nil {
		return nil, nil, nil, err
	}
	w.rec = nil
	if walkOff, err = w.replay(ops); err != nil {
		return nil, nil, nil, err
	}
	spans := rec.Spans()
	if err := measure.WriteSpans(filepath.Join(e.out, "trace-"+e.workload+".json"), spans); err != nil {
		return nil, nil, nil, err
	}
	printBudget(e.workload, spans)
	return inproc, walkOn, walkOff, nil
}

// printBudget prints, per op class, each layer's share of the class's
// in-process time: the table bench/README.md's latency budget is read
// from. The in-process time is the median over the handler pass; a
// layer's time is the median, over the walked ops, of the self time of
// its spans in one op. What the handlers took beyond the layers is the
// service layer's own.
func printBudget(workload string, spans []measure.Span) {
	class := map[int]string{}                // op -> class, named by the handler pass
	handler := map[string][]float64{}        // class -> handler times
	layer := map[string]map[int]float64{}    // span name -> op -> summed self ns
	layersOf := map[string]map[string]bool{} // class -> span names seen
	for _, s := range spans {
		if name, ok := strings.CutPrefix(s.Name, "service."); ok {
			c := strings.TrimSuffix(name, "_handler")
			class[s.Op] = c
			handler[c] = append(handler[c], float64(s.End-s.Start))
		}
	}
	for i, self := range measure.Self(spans) {
		s := spans[i]
		if strings.HasPrefix(s.Name, "service.") {
			continue
		}
		if layer[s.Name] == nil {
			layer[s.Name] = map[int]float64{}
		}
		layer[s.Name][s.Op] += float64(self)
		c := class[s.Op]
		if layersOf[c] == nil {
			layersOf[c] = map[string]bool{}
		}
		layersOf[c][s.Name] = true
	}
	fmt.Printf("  [%s] latency budget: share of each op class's median in-process time\n", workload)
	for _, k := range gen.Kinds {
		c := k.String()
		if len(handler[c]) == 0 {
			continue
		}
		total := measure.Median(handler[c])
		names := make([]string, 0, len(layersOf[c]))
		for name := range layersOf[c] {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("    %s: %d ops, in-process median %.0f us\n", c, len(handler[c]), total/1e3)
		covered := 0.0
		for _, name := range names {
			var perOp []float64
			for op, ns := range layer[name] {
				if class[op] == c {
					perOp = append(perOp, ns)
				}
			}
			med := measure.Median(perOp)
			covered += med
			fmt.Printf("      %-28s %7.0f us %5.1f%%\n", name, med/1e3, 100*med/total)
		}
		fmt.Printf("      %-28s %7.0f us %5.1f%%\n", "service (handlers - layers)", (total-covered)/1e3, 100*(total-covered)/total)
	}
}

// scrapeWorkload boots a benchd on st, replays ops over HTTP, and reads
// the daemon's own counters around the replay.
func (e *env) scrapeWorkload(m metrics, st state, ops []gen.Op, inproc []time.Duration) error {
	p, _, err := e.boot(st)
	if err != nil {
		return err
	}
	var h health
	if err := e.getJSON(p, "/healthz", &h); err != nil {
		return err
	}
	m["perfstore.boot_bytes_parsed"] = Metric{float64(h.BytesParsed), "B"}
	before, err := scrape(e.probe, p.Base)
	if err != nil {
		return err
	}
	if err := e.drive(p, ops); err != nil {
		return err
	}
	after, err := scrape(e.probe, p.Base)
	if err != nil {
		return err
	}
	delta := func(prefix string) float64 { return after.sum(prefix) - before.sum(prefix) }
	hits, misses := delta("benchd_query_cache_hits_total"), delta("benchd_query_cache_misses_total")
	m["service.cache_hit_ratio"] = Metric{ratio(hits, hits+misses), "ratio"}
	m["perflog.entries_per_commit"] = Metric{ratio(delta("perflog_commit_entries_sum"), delta("perflog_commit_entries_count")), "ratio"}
	m["eventbus.dropped"] = Metric{delta("eventbus_dropped_total"), "count"}

	// What HTTP adds: per class, the subprocess median minus the
	// in-process median, weighted by how many ops of the class ran.
	sub, in := map[string][]float64{}, map[string][]float64{}
	for i, op := range e.raw.Ops {
		if !op.Failed {
			sub[op.Kind] = append(sub[op.Kind], float64(op.Dur))
			in[op.Kind] = append(in[op.Kind], float64(inproc[i]))
		}
	}
	var weighted, n float64
	for kind, v := range sub {
		weighted += float64(len(v)) * (measure.Median(v) - measure.Median(in[kind]))
		n += float64(len(v))
	}
	m.us("service.http_overhead_us", weighted/n)
	return p.Stop()
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// samples is one /metrics scrape: series text -> value.
type samples map[string]float64

// sum adds every series of the family (any labels).
func (s samples) sum(family string) float64 {
	var total float64
	for series, v := range s {
		if series == family || strings.HasPrefix(series, family+"{") {
			total += v
		}
	}
	return total
}

func scrape(c *http.Client, base string) (samples, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(bufio.NewScanner(resp.Body))
}

// parseMetrics reads Prometheus text exposition: "series value" lines.
func parseMetrics(sc *bufio.Scanner) (samples, error) {
	out := samples{}
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
