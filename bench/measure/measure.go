// Package measure holds benchload's arithmetic: percentiles over
// latency samples, and spans with self-time accounting for the layer
// walk.
package measure

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Percentile returns the p-th percentile (0..100) of sorted samples by
// linear interpolation between closest ranks; 0 for no samples.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// Median sorts a copy of the samples and returns their 50th percentile.
func Median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Percentile(s, 50)
}

// tails are the percentiles a report may quote beside the median.
var tails = []float64{90, 95, 99, 99.9, 99.99}

// Tail names the highest percentile that still has at least ten of n
// samples beyond it — a higher one would be set by a handful of
// outliers. It is 0 when even p90 has fewer than ten.
func Tail(n int) float64 {
	best := 0.0
	for _, p := range tails {
		// The slack absorbs 100-p not being exact in binary.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// Summary is one latency series as reported: the count, the median, and
// the tail percentile the count supports.
type Summary struct {
	N     int
	P50   float64
	TailP float64 // which percentile Tail is; 0 = none supported
	Tail  float64
}

// Summarize reduces samples (any order) to a Summary.
func Summarize(samples []float64) Summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := Summary{N: len(s), P50: Percentile(s, 50), TailP: Tail(len(s))}
	if sum.TailP > 0 {
		sum.Tail = Percentile(s, sum.TailP)
	}
	return sum
}

// Span is one timed call into a layer. Spans of one operation share Op;
// Parent is the ID of the span that caused this one (0 = the root of
// its operation). Times are nanoseconds since the recorder started.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the walk ends. A nil *Recorder
// records nothing, which is how the walk runs with spans off.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder starts an empty recorder.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a span under parent (0 for an operation's root) and
// returns its ID for End and for children to name.
func (r *Recorder) Start(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans)
}

// End closes the span.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records a span whose times were taken elsewhere (the runner's own
// stage clock), given relative to the wall clock.
func (r *Recorder) Add(op, parent int, name string, start time.Time, d time.Duration) int {
	if r == nil {
		return 0
	}
	s := int64(start.Sub(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: s, End: s + int64(d)})
	return len(r.spans)
}

// Spans returns a copy of everything recorded.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Self returns each span's self time (ns), in the order given: its
// duration minus the part of its interval its children cover. Children
// may overlap one another (a publish and the delivery it causes) and
// may outlast the parent; only the covered part of the parent's own
// interval is subtracted, and only once.
func Self(spans []Span) []int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// SelfTimes groups Self by span name.
func SelfTimes(spans []Span) map[string][]float64 {
	out := map[string][]float64{}
	for i, self := range Self(spans) {
		out[spans[i].Name] = append(out[spans[i].Name], float64(self))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// WriteSpans writes the spans as one JSON array.
func WriteSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
