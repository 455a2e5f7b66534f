// Package telemetry is the framework's observability layer: a
// lightweight span tracer, a concurrency-safe metrics registry rendered
// in Prometheus text exposition format, and an slog handler that stamps
// every log line with the surrounding span's context.
//
// The pipeline itself determines results just as much as the benchmark
// binary does (regressions in the harness are as common as regressions
// in the code under test), so the paper's "record everything" discipline
// extends to the harness: every Runner.Run produces a span tree —
// resolve → concretize → build → schedule → extract → append — whose
// stage durations land both in the perflog entry's extras (queryable
// FOM-adjacent data) and in the runner_stage_seconds histogram served by
// benchd's /metrics endpoint.
//
// Tracing is context-propagated and nil-safe: code paths without a
// tracer in their context publish to the process-wide Default tracer,
// and Span methods tolerate nil receivers so instrumentation never
// forces error handling on callers.
package telemetry

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one key=value span attribute.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: fmt.Sprint(v)} }

// Span is one timed operation in a trace. Spans nest: children are
// attached by Start when the context already carries a span. All methods
// are safe for concurrent use (buildsys attaches DAG-node children from
// worker goroutines) and safe on a nil receiver.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time // zero until End
	err      string
	attrs    []Attr
	children []*Span
	parent   *Span

	// root-only fields: where the finished trace is published.
	tracer  *Tracer
	traceID string
}

// Name returns the span's operation name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// TraceID returns the id of the trace this span belongs to.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	r := s.Root()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traceID
}

// Root walks up to the trace's root span.
func (s *Span) Root() *Span {
	if s == nil {
		return nil
	}
	r := s
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// SetAttr records (or overwrites) one attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End finishes the span, recording the error (nil is a success). Ending
// a root span publishes the whole trace to its tracer. End is
// idempotent: only the first call sets the end time.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	s.end = time.Now()
	if err != nil {
		s.err = err.Error()
	}
	tracer, isRoot := s.tracer, s.parent == nil
	id := s.traceID
	s.mu.Unlock()
	if isRoot && tracer != nil {
		tracer.publish(id, s)
	}
}

// Duration returns end-start, or time-since-start for a live span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// SpanView is an immutable snapshot of a span subtree, the JSON shape
// served by benchd's /v1/traces endpoints.
type SpanView struct {
	Name      string            `json:"name"`
	Start     time.Time         `json:"start"`
	DurationS float64           `json:"duration_s"`
	Error     string            `json:"error,omitempty"`
	Attrs     map[string]string `json:"attrs,omitempty"`
	Children  []SpanView        `json:"children,omitempty"`
}

// View snapshots the span and its children recursively.
func (s *Span) View() SpanView {
	if s == nil {
		return SpanView{}
	}
	s.mu.Lock()
	v := SpanView{
		Name:      s.name,
		Start:     s.start,
		DurationS: s.end.Sub(s.start).Seconds(),
		Error:     s.err,
	}
	if s.end.IsZero() {
		v.DurationS = time.Since(s.start).Seconds()
	}
	if len(s.attrs) > 0 {
		v.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			v.Attrs[a.Key] = a.Value
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		v.Children = append(v.Children, c.View())
	}
	return v
}

// RenderTree renders a span snapshot as an indented tree with durations
// and attributes — what `benchctl run --trace` prints.
//
//	run (0.012s) benchmark=hpgmg-fv system=archer2
//	├─ resolve (0.000s)
//	├─ build (0.004s)
//	│  ├─ build:gcc (0.001s) state=cached
//	...
func RenderTree(v SpanView) string {
	var sb strings.Builder
	renderNode(&sb, v, "", "", "")
	return sb.String()
}

func renderNode(sb *strings.Builder, v SpanView, prefix, branch, childPrefix string) {
	sb.WriteString(prefix + branch + v.Name)
	fmt.Fprintf(sb, " (%.3fs)", v.DurationS)
	keys := make([]string, 0, len(v.Attrs))
	for k := range v.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sb.WriteString(" " + k + "=" + v.Attrs[k])
	}
	if v.Error != "" {
		sb.WriteString(" error=" + v.Error)
	}
	sb.WriteByte('\n')
	for i, c := range v.Children {
		b, cp := "├─ ", "│  "
		if i == len(v.Children)-1 {
			b, cp = "└─ ", "   "
		}
		renderNode(sb, c, prefix+childPrefix, b, cp)
	}
}

// Trace is one finished span tree held by a tracer's ring buffer.
type Trace struct {
	ID   string
	Root *Span
}

// Tracer keeps a bounded in-memory ring of recently finished traces.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	traces []*Trace // oldest first
	seq    int
}

// NewTracer returns a tracer retaining up to capacity finished traces
// (64 when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 64
	}
	return &Tracer{cap: capacity}
}

// Default is the process-wide tracer used when a context carries none.
var Default = NewTracer(256)

func (t *Tracer) publish(id string, root *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == "" {
		t.seq++
		id = fmt.Sprintf("trace-%06d", t.seq)
		root.mu.Lock()
		root.traceID = id
		root.mu.Unlock()
	}
	t.traces = append(t.traces, &Trace{ID: id, Root: root})
	if len(t.traces) > t.cap {
		t.traces = t.traces[len(t.traces)-t.cap:]
	}
}

// Traces returns the retained traces, oldest first.
func (t *Tracer) Traces() []*Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, len(t.traces))
	copy(out, t.traces)
	return out
}

// Get returns the most recent trace with the given id.
func (t *Tracer) Get(id string) (*Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.traces) - 1; i >= 0; i-- {
		if t.traces[i].ID == id {
			return t.traces[i], true
		}
	}
	return nil, false
}

// Len returns the number of retained traces.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}

type ctxKey int

const (
	spanKey ctxKey = iota
	tracerKey
	traceIDKey
)

// WithTracer returns a context whose root spans publish to tr.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, tr)
}

// WithTraceID pins the id the next root span started under ctx will
// publish as — benchd uses the run id, so /v1/traces/{runID} works.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey, id)
}

// FromContext returns the span active in ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Start begins a span named name. If ctx already carries a span the new
// span becomes its child; otherwise it is the root of a new trace,
// published on End to the context's tracer (Default when none is set).
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	s := &Span{name: name, start: time.Now(), attrs: attrs}
	if parent := FromContext(ctx); parent != nil {
		s.parent = parent
		parent.addChild(s)
	} else {
		if tr, ok := ctx.Value(tracerKey).(*Tracer); ok && tr != nil {
			s.tracer = tr
		} else {
			s.tracer = Default
		}
		if id, ok := ctx.Value(traceIDKey).(string); ok {
			s.traceID = id
		}
	}
	return context.WithValue(ctx, spanKey, s), s
}
