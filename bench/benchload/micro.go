package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/bench/gen"
	"repro/bench/measure"
	"repro/internal/core"
	"repro/internal/eventbus"
	"repro/internal/obs"
	"repro/internal/perflog"
	"repro/internal/perfstore"
	"repro/internal/suite"
	"repro/internal/telemetry"
)

// probes fixes how many operations each per-layer probe times. They are
// the same in every trace run, whatever the workload, so a layer's
// figure means the same thing wherever it is read.
type probes struct {
	batches, per int    // cheap calls: `batches` batches of `per` calls
	calls        int    // calls timed one by one
	runs         int    // walked submit ops
	queries      [3]int // walked selects, aggregates, regressions per tier
	sealHead     int    // head size sealed by the seal probe
}

func probesFor(smoke bool) probes {
	if smoke {
		return probes{batches: 5, per: 20, calls: 5, runs: 12, queries: [3]int{6, 4, 2}, sealHead: 500}
	}
	return probes{batches: 40, per: 500, calls: 50, runs: 300, queries: [3]int{150, 90, 45}, sealHead: 50_000}
}

// perCall times `batches` batches of `per` calls of f and returns the
// median batch's time per call, in ns. Calls this cheap cannot be timed
// one by one: reading the clock costs as much as they do.
func perCall(p probes, f func(i int)) float64 {
	means := make([]float64, p.batches)
	for b := range means {
		t0 := time.Now()
		for i := 0; i < p.per; i++ {
			f(b*p.per + i)
		}
		means[b] = float64(time.Since(t0)) / float64(p.per)
	}
	return measure.Median(means)
}

// eachCall times `calls` calls of f one by one and returns the median,
// in ns.
func eachCall(p probes, f func()) float64 {
	d := make([]float64, p.calls)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = float64(time.Since(t0))
	}
	return measure.Median(d)
}

type metrics map[string]Metric

func (m metrics) ns(name string, v float64) { m[name] = Metric{v, "ns"} }
func (m metrics) us(name string, v float64) { m[name] = Metric{v / 1e3, "us"} }
func (m metrics) ms(name string, v float64) { m[name] = Metric{v / 1e6, "ms"} }

// liveHeap is the heap in use after a full collection.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// probeCheap times the layers whose calls need no store: the perflog
// line codec, the event bus fan-out, and telemetry and the sampler.
func probeCheap(m metrics, p probes, c *gen.Corpus) error {
	entries := make([]*perflog.Entry, p.per)
	lines := make([]string, p.per)
	for i := range entries {
		entries[i] = c.Entry(i % max(c.N, 1))
		lines[i] = entries[i].Line()
	}
	var sink int
	m.ns("perflog.line_ns", perCall(p, func(i int) { sink += len(entries[i%p.per].Line()) }))
	m.ns("perflog.parse_line_ns", perCall(p, func(i int) {
		if e, err := perflog.ParseLine(lines[i%p.per]); err == nil {
			sink += e.JobID
		}
	}))

	for _, subs := range []int{1, 50} {
		ns, err := probePublish(p, subs)
		if err != nil {
			return err
		}
		m.ns(map[int]string{1: "eventbus.publish_1sub_ns", 50: "eventbus.publish_50sub_ns"}[subs], ns)
	}

	ctx := telemetry.WithTracer(context.Background(), telemetry.NewTracer(1))
	var pctx context.Context
	m.ns("telemetry.span_ns", perCall(p, func(i int) {
		if i%p.per == 0 { // a fresh parent per batch keeps its child list short
			pctx, _ = telemetry.Start(ctx, "probe")
		}
		_, s := telemetry.Start(pctx, "child")
		s.End(nil)
	}))
	counter := telemetry.NewRegistry().Counter("bench_probe_total", "benchload probe").With()
	m.ns("telemetry.counter_inc_ns", perCall(p, func(int) { counter.Inc() }))
	m.us("telemetry.render_us", eachCall(p, func() { telemetry.DefaultRegistry.WritePrometheus(io.Discard) }))

	o, err := obs.New(obs.Config{Interval: time.Hour, FlushEvery: -1, Logger: quiet})
	if err != nil {
		return err
	}
	var sampleErr error
	m.us("obs.sample_us", eachCall(p, func() {
		if err := o.Sample(time.Now()); err != nil {
			sampleErr = err
		}
	}))
	_ = sink
	return sampleErr
}

// probePublish times Publish on a bus with `subs` subscribers, each
// drained by its own goroutine as a /v1/watch handler drains its own.
func probePublish(p probes, subs int) (float64, error) {
	bus := eventbus.New(0)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		sub, err := bus.Subscribe(nil, 0)
		if err != nil {
			return 0, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := sub.Next(context.Background()); err != nil {
					return
				}
			}
		}()
	}
	data := map[string]string{"run_id": "run-000001", "result": "pass"}
	var pubErr error
	ns := perCall(p, func(int) {
		if _, err := bus.Publish(eventbus.TypeRunFinished, data); err != nil {
			pubErr = err
		}
	})
	bus.Close()
	wg.Wait()
	return ns, pubErr
}

// probeWritePath walks submit ops over an empty tiered store — every
// layer of the run pipeline and the write side of the store — and times
// the shared writer under one and under two appenders.
func probeWritePath(m metrics, p probes, seed int64, dir string) error {
	perflogRoot, tree := filepath.Join(dir, "perflogs"), filepath.Join(dir, "install")
	store, err := perfstore.OpenTiered(perflogRoot, filepath.Join(dir, "data"))
	if err != nil {
		return err
	}
	w, err := newWalker(store, "head", tree)
	if err != nil {
		return err
	}
	defer w.close()
	ops := gen.NewSequence(seed, gen.NewCorpus(seed, 0)).Runs(p.runs)
	w.rec = measure.NewRecorder()
	if _, err := w.replay(ops); err != nil {
		return err
	}
	self := measure.SelfTimes(w.rec.Spans())
	for _, name := range []string{"concretize.concretize", "buildsys.install", "scheduler.submit_wait",
		"core.run", "perfstore.add_batch", "perfstore.syncfile_noop", "eventbus.deliver"} {
		m.us(name+"_us", measure.Median(self[name]))
	}
	m.us("perflog.writer_append_1_us", measure.Median(self["perflog.writer_append"]))
	lines, size, err := treeLines(perflogRoot)
	if err != nil {
		return err
	}
	m["perflog.bytes_per_entry"] = Metric{float64(size) / float64(lines), "B"}

	// Two appenders at once on one file: an append that arrives during a
	// commit shares the next one, so commits can be fewer than appends.
	w.rec = nil
	entries, err := perflog.ReadTree(perflogRoot)
	if err != nil {
		return err
	}
	e := entries[0]
	before := w.commits
	lat, errs := make([][]float64, 2), make([]error, 2)
	var wg sync.WaitGroup
	for g := range lat {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < p.runs/2 && errs[g] == nil; i++ {
				t0 := time.Now()
				errs[g] = w.writer.Append(e.System, e.Benchmark, e)
				lat[g] = append(lat[g], float64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	m.us("perflog.writer_append_2_us", measure.Median(append(lat[0], lat[1]...)))
	m["perflog.commits_per_append"] = Metric{float64(w.commits-before) / float64(2*(p.runs/2)), "ratio"}

	// The pipeline without its sink: what a run costs before any byte
	// is logged, and how much it allocates.
	w.runner.Log = discardAppender{}
	b, err := suite.ByName(ops[0].Benchmark)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < p.calls; i++ {
		if _, err := w.runner.RunContext(context.Background(), b, core.Options{System: ops[0].System}); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	m["core.run_allocs"] = Metric{float64(ms1.Mallocs-ms0.Mallocs) / float64(p.calls), "count"}
	return nil
}

type discardAppender struct{}

func (discardAppender) Append(string, string, ...*perflog.Entry) error { return nil }

// probeStores times the store's read side on both tiers over the full
// corpus, its boot from text and from segments, what each tier keeps
// resident, and sealing and compaction. big is a sealed state holding
// the whole corpus; scratch is for copies.
func probeStores(m metrics, p probes, seed int64, c *gen.Corpus, big state, segments int, scratch string) error {
	ops := gen.NewSequence(seed, c).Queries(p.queries[0], p.queries[1], p.queries[2])
	walk := func(store *perfstore.Store, tier string) error {
		w, err := newWalker(store, tier, filepath.Join(scratch, "install"))
		if err != nil {
			return err
		}
		defer w.close()
		w.rec = measure.NewRecorder()
		if _, err := w.replay(ops); err != nil {
			return err
		}
		self := measure.SelfTimes(w.rec.Spans())
		for _, k := range []gen.Kind{gen.Select, gen.Aggregate, gen.Regress} {
			m.us("perfstore."+k.String()+"_"+tier+"_us", measure.Median(self["perfstore."+k.String()+"_"+tier]))
		}
		if tier == "sealed" { // the no-op re-sync every query handler pays
			m.us("perfstore.sync_noop_us", measure.Median(self["perfstore.sync_noop"]))
		}
		return nil
	}
	whole, err := perfstore.ParseQuery(strings.TrimPrefix(gen.AggregatePath(), "/v1/query?"))
	if err != nil {
		return err
	}

	// Sealed tier: boot is O(segment headers); the first query loads.
	base := liveHeap()
	t0 := time.Now()
	sealed, err := perfstore.OpenTiered(big.perflog, big.dataDir)
	if err != nil {
		return err
	}
	if err := sealed.Sync(); err != nil {
		return err
	}
	m.ms("perfstore.open_tiered_ms", float64(time.Since(t0)))
	t0 = time.Now()
	if _, err := sealed.Aggregate(whole); err != nil {
		return err
	}
	m.ms("perfstore.first_query_sealed_ms", float64(time.Since(t0)))
	m["perfstore.resident_bytes_per_entry_sealed"] = Metric{(liveHeap() - base) / float64(c.N), "B"}
	if err := walk(sealed, "sealed"); err != nil {
		return err
	}
	var segBytes int64
	err = filepath.WalkDir(big.dataDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".seg") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		segBytes += info.Size()
		return nil
	})
	if err != nil {
		return err
	}
	m["perfstore.segment_bytes_per_entry"] = Metric{float64(segBytes) / float64(c.N), "B"}

	// Compaction merges every segment into one; on a copy, so the state
	// keeps the segments the workloads are defined over.
	copied := filepath.Join(scratch, "compact-data")
	if err := copyFiles(copied, big.dataDir); err != nil {
		return err
	}
	compacted, err := perfstore.OpenTiered(big.perflog, copied)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if ran, err := compacted.Compact(segments); err != nil || !ran {
		return fmt.Errorf("compaction of %d segments: ran=%v: %v", segments, ran, err)
	}
	m.ms("perfstore.compact_ms", float64(time.Since(t0)))

	// Head tier: boot re-parses every perflog byte.
	base = liveHeap()
	t0 = time.Now()
	head := perfstore.Open(big.perflog)
	if err := head.Sync(); err != nil {
		return err
	}
	m.ms("perfstore.text_boot_ms", float64(time.Since(t0)))
	m["perfstore.resident_bytes_per_entry_head"] = Metric{(liveHeap() - base) / float64(c.N), "B"}
	if err := walk(head, "head"); err != nil {
		return err
	}

	// Sealing a head of sealHead entries.
	sealDir := filepath.Join(scratch, "seal")
	st, err := perfstore.OpenTiered(filepath.Join(sealDir, "perflogs"), filepath.Join(sealDir, "data"))
	if err != nil {
		return err
	}
	if err := c.Write(filepath.Join(sealDir, "perflogs"), 0, min(p.sealHead, c.N)); err != nil {
		return err
	}
	if err := st.Sync(); err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := st.Seal(); err != nil {
		return err
	}
	m.ms("perfstore.seal_ms", float64(time.Since(t0)))
	return nil
}

// copyFiles copies the regular files of src (no subdirectories) to dst.
func copyFiles(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, d := range entries {
		if !d.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, d.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, d.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
