package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/bench/gen"
	"repro/bench/measure"
	"repro/internal/core"
	"repro/internal/eventbus"
	"repro/internal/perflog"
	"repro/internal/perfstore"
	"repro/internal/suite"
	"repro/internal/telemetry"
)

// walker executes operations in-process, layer by layer: it wires the
// public pieces service.New wires — store, runner, group-commit writer,
// event bus — calls them in the order the daemon's handlers and workers
// do, and wraps each call in a span. Nothing is added to the program:
// all spans are taken here, around the calls into each layer, except
// the runner's stages, which the runner already times itself.
//
// Span names are <layer>.<call>; the layer is the module's name.
type walker struct {
	rec   *measure.Recorder // nil = spans off
	store *perfstore.Store
	tier  string // "head" or "sealed": which tier answers this store's queries

	runner *core.Runner
	writer *perflog.Writer
	tracer *telemetry.Tracer
	bus    *eventbus.Bus
	// delivered carries each run.finished event's receipt time from the
	// subscriber goroutine, the stand-in for a /v1/watch handler.
	delivered chan time.Time
	subDone   chan struct{}

	op, appendParent, appendSpan int // the submit op in flight (the walk is sequential)
	commits                      int
}

// newWalker wires a walker over store, building into tree.
func newWalker(store *perfstore.Store, tier, tree string) (*walker, error) {
	w := &walker{
		store: store, tier: tier,
		runner: core.New(tree, ""), tracer: telemetry.NewTracer(1), bus: eventbus.New(0),
		delivered: make(chan time.Time, 1), subDone: make(chan struct{}),
	}
	w.writer = perflog.NewWriter(store.Root(), perflog.WriterOptions{OnCommit: w.onCommit})
	w.runner.Log = w
	sub, err := w.bus.Subscribe([]string{eventbus.TypeRunFinished}, 0)
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(w.subDone)
		for {
			if _, err := sub.Next(context.Background()); err != nil {
				return // bus closed
			}
			w.delivered <- time.Now()
		}
	}()
	return w, nil
}

// close stops the subscriber and the writer's committer.
func (w *walker) close() error {
	w.bus.Close()
	<-w.subDone
	return w.writer.Close()
}

// Append is the runner's append stage, routed through the shared
// group-commit writer as the daemon routes it.
func (w *walker) Append(system, benchmark string, entries ...*perflog.Entry) error {
	w.appendSpan = w.rec.Start(w.op, w.appendParent, "perflog.writer_append")
	defer w.rec.End(w.appendSpan)
	return w.writer.Append(system, benchmark, entries...)
}

// onCommit is the writer's durable-commit hook: the batch enters the
// store without being read back, as in service.commitIngest. It runs on
// the committer goroutine while Append is still blocked, so its span
// nests inside the append's.
func (w *walker) onCommit(c perflog.Commit) {
	w.commits++
	s := w.rec.Start(w.op, w.appendSpan, "perfstore.add_batch")
	w.store.AddBatch(c)
	w.rec.End(s)
}

// stageSpan names the layer each runner stage belongs to. Stages not
// listed (resolve, extract) stay in core's own time; append is spanned
// live by Append above.
var stageSpan = map[string]string{
	"concretize": "concretize.concretize",
	"build":      "buildsys.install",
	"schedule":   "scheduler.submit_wait",
}

// do walks one op and returns how long it took end to end.
func (w *walker) do(id int, op gen.Op) (time.Duration, error) {
	t0 := time.Now()
	root := w.rec.Start(id, 0, "op."+op.Kind.String())
	var err error
	if op.Kind == gen.Submit {
		err = w.submit(id, root, op)
	} else {
		err = w.query(id, root, op)
	}
	w.rec.End(root)
	return time.Since(t0), err
}

// query mirrors service.handleQuery / handleRegressions without the
// HTTP and JSON around them: re-sync, then the store call.
func (w *walker) query(id, root int, op gen.Op) error {
	_, raw, _ := strings.Cut(op.Path, "?")
	s := w.rec.Start(id, root, "perfstore.sync_noop")
	err := w.store.Sync()
	w.rec.End(s)
	if err != nil {
		return err
	}
	q, err := perfstore.ParseQuery(raw)
	if err != nil {
		return err
	}
	s = w.rec.Start(id, root, "perfstore."+op.Kind.String()+"_"+w.tier)
	defer w.rec.End(s)
	switch op.Kind {
	case gen.Select:
		w.store.Select(q)
	case gen.Aggregate:
		_, err = w.store.Aggregate(q)
	case gen.Regress:
		_, err = w.store.Regressions(q, 0.10, 0)
	}
	return err
}

// submit mirrors service.execute: publish run.started, run the pipeline
// (whose append stage commits and ingests), reconcile the file, publish
// run.finished — and, as the op's user does, wait for its delivery.
func (w *walker) submit(id, root int, op gen.Op) error {
	b, err := suite.ByName(op.Benchmark)
	if err != nil {
		return err
	}
	data := map[string]string{"benchmark": op.Benchmark, "system": op.System}
	s := w.rec.Start(id, root, "eventbus.publish")
	_, err = w.bus.Publish(eventbus.TypeRunStarted, data)
	w.rec.End(s)
	if err != nil {
		return err
	}

	run := w.rec.Start(id, root, "core.run")
	w.op, w.appendParent = id, run
	ctx, parent := telemetry.Start(telemetry.WithTracer(context.Background(), w.tracer), "walk")
	report, err := w.runner.RunContext(ctx, b, core.Options{System: op.System})
	parent.End(err)
	w.rec.End(run)
	if err != nil {
		return err
	}
	if !report.Pass() {
		return fmt.Errorf("run of %s on %s did not pass", op.Benchmark, op.System)
	}
	if w.rec != nil {
		for _, r := range parent.View().Children {
			for _, stage := range r.Children {
				if name, ok := stageSpan[stage.Name]; ok {
					w.rec.Add(id, run, name, stage.Start, time.Duration(stage.DurationS*float64(time.Second)))
				}
			}
		}
	}

	s = w.rec.Start(id, root, "perfstore.syncfile_noop")
	err = w.store.SyncFile(filepath.Join(w.store.Root(), report.Entry.System, report.Entry.Benchmark+".log"))
	w.rec.End(s)
	if err != nil {
		return err
	}

	s = w.rec.Start(id, root, "eventbus.publish")
	ev, err := w.bus.Publish(eventbus.TypeRunFinished, data)
	w.rec.End(s)
	if err != nil {
		return err
	}
	got := <-w.delivered
	w.rec.Add(id, root, "eventbus.deliver", ev.Time, got.Sub(ev.Time))
	return nil
}

// replay walks ops in order and returns each op's duration.
func (w *walker) replay(ops []gen.Op) ([]time.Duration, error) {
	out := make([]time.Duration, len(ops))
	for i, op := range ops {
		d, err := w.do(i+1, op)
		if err != nil {
			return nil, fmt.Errorf("walk op %d (%s): %w", i, op.Kind, err)
		}
		out[i] = d
	}
	return out, nil
}
