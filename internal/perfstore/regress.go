package perfstore

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/perflog"
)

// DefaultRSDGate is the run-to-run relative-standard-deviation threshold
// above which a FOM's latest value is reported as unstable rather than
// judged against the baseline: a 10% noise floor, per the validation
// protocol. Store.RSDGate overrides it.
const DefaultRSDGate = 0.10

// Verdict and method vocabulary for Report.
const (
	VerdictOK        = "ok"
	VerdictRegressed = "regressed"
	VerdictUnstable  = "unstable"

	MethodCI        = "ci"        // bootstrap CI-overlap test
	MethodTolerance = "tolerance" // fixed fractional tolerance (fallback)
	MethodVariance  = "variance"  // variance gate tripped; no comparison made
)

// SeriesPoint is one run's contribution to a regression series: the
// perflog point value plus, when the run used the repetition protocol,
// its per-FOM repetition statistics.
type SeriesPoint struct {
	Value float64
	Stats *perflog.RepStats // nil for single-execution entries
}

// Report flags one group's latest FOM value against a sliding baseline.
// When the latest run carries enough repetitions (n >= 3) the verdict
// comes from a CI-overlap test — flagged when the latest run's bootstrap
// confidence interval falls entirely below the baseline's interval
// envelope; otherwise the fixed-tolerance rule is the fallback. A latest
// run whose run-to-run RSD exceeds the gate is reported as unstable and
// never flagged: noise is not a regression, and a mean over noise is not
// a result.
type Report struct {
	Group    string  `json:"group"`
	Baseline float64 `json:"baseline"`
	Latest   float64 `json:"latest"`
	Change   float64 `json:"change"` // fractional, negative = slower
	Flagged  bool    `json:"flagged"`
	Samples  int     `json:"samples"` // values in the baseline window
	// Verdict is ok, regressed, or unstable; Method records which rule
	// produced it (ci, tolerance, variance).
	Verdict string `json:"verdict,omitempty"`
	Method  string `json:"method,omitempty"`
	// Interval columns, present when the CI path judged the series.
	BaselineLo float64 `json:"baseline_lo,omitempty"`
	BaselineHi float64 `json:"baseline_hi,omitempty"`
	LatestLo   float64 `json:"latest_lo,omitempty"`
	LatestHi   float64 `json:"latest_hi,omitempty"`
	// Repetition statistics of the latest run, when it carried any.
	LatestN   int     `json:"latest_n,omitempty"`
	LatestRSD float64 `json:"latest_rsd,omitempty"`
}

// EvalSeries applies the fixed-tolerance regression rule to a plain
// value series — the pre-repetition rule, kept as the exact fallback for
// series without repetition statistics (and for callers like
// postprocess.CheckRegressions that predate the protocol). It is
// EvalSeriesPoints over stat-less points with the variance gate off.
func EvalSeries(vals []float64, tolerance float64, window int) (Report, bool) {
	points := make([]SeriesPoint, len(vals))
	for i, v := range vals {
		points[i] = SeriesPoint{Value: v}
	}
	return EvalSeriesPoints(points, tolerance, window, 0)
}

// pointInterval is a point's confidence interval: its bootstrap CI when
// it carries repetition stats with n >= 2, else the degenerate interval
// at its value.
func pointInterval(p SeriesPoint) (lo, hi float64) {
	if p.Stats != nil && p.Stats.N >= 2 {
		return p.Stats.CILo, p.Stats.CIHi
	}
	return p.Value, p.Value
}

// unstablePoint reports whether a point trips the variance gate.
func unstablePoint(p SeriesPoint, gate float64) bool {
	return gate > 0 && p.Stats != nil && p.Stats.N >= 2 && p.Stats.RSD > gate
}

// baseline accumulates the base points of one verdict in series order:
// how many, their sum, and the envelope of their intervals.
type baseline struct {
	n      int
	sum    float64
	lo, hi float64
}

func (b *baseline) add(p SeriesPoint) {
	lo, hi := pointInterval(p)
	if b.n == 0 {
		b.lo, b.hi = math.Inf(1), math.Inf(-1)
	}
	b.n++
	b.sum += p.Value
	b.lo = math.Min(b.lo, lo)
	b.hi = math.Max(b.hi, hi)
}

// EvalSeriesPoints applies the regression rule to one time-ascending
// series of points: baseline = the window of points preceding the latest
// (window <= 0 means all of them), excluding unstable baseline points
// (falling back to all of them if every one is unstable). The verdict:
//
//   - variance gate: the latest point's RSD exceeds rsdGate → unstable,
//     never flagged (rsdGate <= 0 disables the gate).
//   - CI overlap: the latest point has n >= 3 repetitions → flagged when
//     its CI falls entirely below the baseline CI envelope and the
//     change is negative.
//   - tolerance: otherwise, flagged when the fractional drop from the
//     baseline mean exceeds tolerance — byte-for-byte the pre-repetition
//     rule for stat-less series.
//
// It reports false when the series is too short to judge (fewer than two
// usable values).
func EvalSeriesPoints(points []SeriesPoint, tolerance float64, window int, rsdGate float64) (Report, bool) {
	// NaN values are unusable. The latest usable point is judged against
	// the usable points in [from, last) — all of them, or the nearest
	// window.
	last := len(points) - 1
	for last >= 0 && math.IsNaN(points[last].Value) {
		last--
	}
	if last < 1 {
		return Report{}, false
	}
	from := last
	for n := 0; from > 0 && (window <= 0 || n < window); {
		if from--; !math.IsNaN(points[from].Value) {
			n++
		}
	}
	// Unstable base points do not contribute to the baseline: their
	// means are noise. If every base point is unstable there is nothing
	// better — use them all rather than refuse a verdict.
	var all, stable baseline
	for _, p := range points[from:last] {
		if math.IsNaN(p.Value) {
			continue
		}
		all.add(p)
		if !unstablePoint(p, rsdGate) {
			stable.add(p)
		}
	}
	if all.n == 0 {
		return Report{}, false
	}
	base := stable
	if base.n == 0 {
		base = all
	}
	latest := points[last]
	mean := base.sum / float64(base.n)
	change := 0.0
	if mean != 0 {
		change = (latest.Value - mean) / mean
	}
	r := Report{
		Baseline: mean,
		Latest:   latest.Value,
		Change:   change,
		Samples:  base.n,
	}
	if latest.Stats != nil {
		r.LatestN = latest.Stats.N
		r.LatestRSD = latest.Stats.RSD
		r.LatestLo, r.LatestHi = pointInterval(latest)
	}

	if unstablePoint(latest, rsdGate) {
		r.Verdict = VerdictUnstable
		r.Method = MethodVariance
		return r, true
	}

	if latest.Stats != nil && latest.Stats.N >= 3 {
		// CI-overlap test: the baseline interval is the envelope of the
		// stable base points' intervals — the range of means the history
		// supports. A regression requires the latest run's entire CI to
		// sit below it.
		r.BaselineLo, r.BaselineHi = base.lo, base.hi
		r.Method = MethodCI
		if r.LatestHi < base.lo && change < 0 {
			r.Flagged = true
			r.Verdict = VerdictRegressed
		} else {
			r.Verdict = VerdictOK
		}
		return r, true
	}

	r.Method = MethodTolerance
	r.Flagged = change < -tolerance
	if r.Flagged {
		r.Verdict = VerdictRegressed
	} else {
		r.Verdict = VerdictOK
	}
	return r, true
}

// point is one run of a series with its ordering key, so the legs' series
// concatenate (or, when their time ranges overlap, sort) into one.
type point struct {
	t   int64
	seq uint64
	SeriesPoint
}

func cmpPoints(a, b point) int { return cmpOrder(a.t, a.seq, b.t, b.seq) }

// legSeries is the per-group series of one leg. The runs sit in one
// pointer-free slab in arrival order, each linked to the next run of its
// group, and the repetition statistics of the runs that carry any in a
// second: what a leg allocates grows with its groups, not with its runs.
type legSeries struct {
	runs   []run
	stats  []perflog.RepStats
	groups map[string]*span
}

type run struct {
	t     int64
	seq   uint64
	value float64
	stats int32 // index into legSeries.stats, -1 for a single-execution entry
	next  int32 // slab index of the group's next run, -1 at its latest
}

// span is one group's first and latest run in the slab.
type span struct{ first, last int32 }

// appendGroup appends the group's points to dst in arrival order.
func (l *legSeries) appendGroup(dst []point, group string) []point {
	g := l.groups[group]
	if g == nil {
		return dst
	}
	for i := g.first; i >= 0; i = l.runs[i].next {
		r := &l.runs[i]
		p := point{r.t, r.seq, SeriesPoint{Value: r.value}}
		if r.stats >= 0 {
			p.Stats = &l.stats[r.stats]
		}
		dst = append(dst, p)
	}
	return dst
}

// pinsGroups reports whether q's equality predicates fix every group-by
// field, so that all matching entries fall in one group: an entry made of
// nothing but the predicates has every field set.
func pinsGroups(q Query, groupBy []string) bool {
	probe := &perflog.Entry{System: q.System, Benchmark: q.Benchmark, Result: q.Result, Extra: q.Extra}
	for _, field := range newGroupKeyer(groupBy).fields {
		if field(probe) == "" {
			return false
		}
	}
	return true
}

// Regressions evaluates q.FOM over the matching entries, grouped by
// q.GroupBy (default system,benchmark), each group ordered by
// timestamp. window bounds the sliding baseline (0 = every earlier
// run). Entries carrying repetition statistics are judged by CI overlap
// and gated on run-to-run variance (Store.RSDGate, default 10%);
// stat-less series fall back to the fixed tolerance. Groups with fewer
// than two runs are skipped — nothing to compare yet.
//
// The series are built inside the scan: each leg appends its matching
// rows straight into per-group series, no entry slice in between. When
// the baseline is bounded and the query pins the one group (the post-run
// check of a scheduled run: system + benchmark + FOM), each leg scans
// newest first and stops at window+1 usable values — the verdict reads
// nothing older. A Limit cuts the series from the global most recent
// Limit entries first.
func (s *Store) Regressions(q Query, tolerance float64, window int) ([]Report, error) {
	if q.FOM == "" {
		return nil, fmt.Errorf("perfstore: regressions need Query.FOM")
	}
	groupBy := q.groupBy()
	m := q.compile()
	stats := perflog.NewRepStatsReader(q.FOM)
	bounded := window > 0 && q.Limit == 0 && pinsGroups(q, groupBy)
	// newSeries starts one leg's per-group series; add appends a run and
	// reports whether a bounded baseline still wants more. The group key
	// is rendered into the keyer's reused buffer and only materialized as
	// a string when a new group appears.
	newSeries := func() (l *legSeries, reserve func(int), add func(hit) bool) {
		keyer := newGroupKeyer(groupBy)
		l = &legSeries{groups: map[string]*span{}}
		usable := 0
		reserve = func(rows int) {
			if bounded {
				rows = min(rows, window+1)
			}
			l.runs = make([]run, 0, rows)
		}
		return l, reserve, func(h hit) bool {
			idx := int32(len(l.runs))
			raw := keyer.raw(h.e)
			if g := l.groups[string(raw)]; g == nil {
				l.groups[string(raw)] = &span{idx, idx}
			} else {
				l.runs[g.last].next, g.last = idx, idx
			}
			r := run{h.t, h.seq, h.e.FOMs[q.FOM].Value, -1, -1}
			if rs, ok := stats.Read(h.e); ok {
				r.stats = int32(len(l.stats))
				l.stats = append(l.stats, rs)
			}
			l.runs = append(l.runs, r)
			if !math.IsNaN(r.value) {
				usable++
			}
			return !bounded || usable <= window
		}
	}
	var legs []*legSeries
	if q.Limit > 0 {
		// The series are cut from the global most recent Limit.
		l, _, add := newSeries()
		for _, h := range newestHits(s.selectLegs(m, q.Limit), q.Limit) {
			add(h)
		}
		legs = append(legs, l)
	} else {
		legs = scanLegs(s, m, func(v *view) (*legSeries, int, int) {
			l, reserve, add := newSeries()
			plan, read := v.scan(m, bounded, reserve, add)
			return l, plan, read
		})
	}
	legs = slices.DeleteFunc(legs, func(l *legSeries) bool { return l == nil }) // legs that never ran
	var keys []string
	for _, l := range legs {
		for key := range l.groups {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	gate := s.rsdGate()
	var out []Report
	var pts []point
	var series []SeriesPoint
	for _, key := range slices.Compact(keys) {
		// Legs come oldest segment first, head last, so their series
		// usually concatenate in order; only overlapping time ranges, a
		// shard that ingested out of order or a newest-first scan need
		// the sort.
		pts = pts[:0]
		for _, l := range legs {
			pts = l.appendGroup(pts, key)
		}
		if !slices.IsSortedFunc(pts, cmpPoints) {
			slices.SortFunc(pts, cmpPoints)
		}
		series = series[:0]
		for _, p := range pts {
			series = append(series, p.SeriesPoint)
		}
		r, ok := EvalSeriesPoints(series, tolerance, window, gate)
		if !ok {
			continue
		}
		r.Group = key
		out = append(out, r)
	}
	return out, nil
}
