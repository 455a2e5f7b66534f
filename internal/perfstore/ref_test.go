package perfstore

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/perflog"
)

// The pre-index query path, kept as the reference the one scan is
// measured and property-tested against: a full linear scan of both tiers
// with per-entry predicate checks and a post-hoc sort, then sequential
// aggregation and regression evaluation over the selected slice. Every
// query must answer exactly as these do.

// GroupKey joins the entry's group-by fields with "/" — the same shape
// perfplot regress prints.
func GroupKey(e *perflog.Entry, groupBy []string) string {
	return string(newGroupKeyer(groupBy).raw(e))
}

// add indexes a single entry.
func (s *Store) add(e *perflog.Entry, file string) { s.addBatch([]*perflog.Entry{e}, file) }

func (s *Store) selectScan(q Query) []*perflog.Entry {
	m := q.compile()
	var hits []hit
	scan := func(st *stored) {
		if !st.dead && !(m.hasSince && st.t < m.sinceNano) && m.matchEntry(st.entry) {
			hits = append(hits, st.hit())
		}
	}
	s.seg.RLock()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for j := range sh.entries {
			scan(&sh.entries[j])
		}
		sh.mu.RUnlock()
	}
	for _, g := range s.seg.list {
		d, err := g.load()
		if err != nil {
			s.noteLoadFailure(err)
			continue
		}
		for j := range d.entries {
			scan(&d.entries[j])
		}
	}
	s.seg.RUnlock()
	slices.SortFunc(hits, cmpHits)
	if q.Limit > 0 && len(hits) > q.Limit {
		hits = hits[len(hits)-q.Limit:]
	}
	out := make([]*perflog.Entry, len(hits))
	for i, h := range hits {
		out[i] = h.e
	}
	return out
}

// entryUnstable reports whether an entry's FOM trips the variance gate:
// it carries repetition stats (n >= 2) whose RSD exceeds the gate.
func entryUnstable(e *perflog.Entry, fomName string, gate float64) bool {
	if gate <= 0 || fomName == "" {
		return false
	}
	s, ok := e.RepStats(fomName)
	return ok && s.N >= 2 && s.RSD > gate
}

// aggregateEntries aggregates an already selected, time-ascending entry
// slice.
func aggregateEntries(entries []*perflog.Entry, groupBy []string, fomName string, gate float64) []Aggregate {
	keyer := newGroupKeyer(groupBy)
	byGroup := map[string]*Aggregate{}
	stableCount := map[string]int{}
	var order []string
	for _, e := range entries {
		raw := keyer.raw(e)
		agg := byGroup[string(raw)]
		if agg == nil {
			key := string(raw)
			agg = &Aggregate{Group: key, Min: math.Inf(1), Max: math.Inf(-1)}
			byGroup[key] = agg
			order = append(order, key)
		}
		agg.Count++
		if fomName == "" {
			continue
		}
		if entryUnstable(e, fomName, gate) {
			agg.Unstable++
			continue
		}
		stableCount[agg.Group]++
		v := e.FOMs[fomName]
		agg.Unit = v.Unit
		agg.Min = math.Min(agg.Min, v.Value)
		agg.Max = math.Max(agg.Max, v.Value)
		agg.Mean += v.Value // sum; divided below
		agg.Last = v.Value  // entries are time-ascending
	}
	sort.Strings(order)
	out := make([]Aggregate, 0, len(order))
	for _, key := range order {
		agg := byGroup[key]
		if fomName != "" && stableCount[key] > 0 {
			agg.Mean /= float64(stableCount[key])
		} else {
			agg.Min, agg.Max = 0, 0
		}
		out = append(out, *agg)
	}
	return out
}

// aggregateRef is Aggregate over the reference scan.
func (s *Store) aggregateRef(q Query) []Aggregate {
	return aggregateEntries(s.selectScan(q), q.groupBy(), q.FOM, s.rsdGate())
}

// regressionsRef is Regressions as it ran before the series were built
// inside the scan: group a selected slice, one heap-allocated RepStats
// per entry that carries any.
func (s *Store) regressionsRef(q Query, tolerance float64, window int) []Report {
	groupBy := q.groupBy()
	series := map[string][]SeriesPoint{}
	for _, e := range s.selectScan(q) {
		p := SeriesPoint{Value: e.FOMs[q.FOM].Value}
		if st, ok := e.RepStats(q.FOM); ok {
			p.Stats = &st
		}
		key := GroupKey(e, groupBy)
		series[key] = append(series[key], p)
	}
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Report
	for _, key := range keys {
		r, ok := EvalSeriesPoints(series[key], tolerance, window, s.rsdGate())
		if !ok {
			continue
		}
		r.Group = key
		out = append(out, r)
	}
	return out
}

// refEntry is randEntry plus what the regression rule branches on: a
// third of the entries carry repetition statistics for l0 (a quarter of
// those noisy enough to trip the variance gate), and one in forty has an
// unusable l0.
func refEntry(rng *rand.Rand, i int) *perflog.Entry {
	e := randEntry(rng, i)
	if rng.Intn(3) == 0 {
		v := e.FOMs["l0"].Value
		rsd := 0.01 + rng.Float64()*0.05
		if rng.Intn(4) == 0 {
			rsd = 0.2 + rng.Float64()
		}
		e.SetRepStats("l0", perflog.RepStats{
			N: 1 + rng.Intn(5), Mean: v, Stddev: v * rsd, RSD: rsd, CILo: v * (1 - rsd), CIHi: v * (1 + rsd),
		})
	}
	if rng.Intn(40) == 0 {
		f := e.FOMs["l0"]
		f.Value = math.NaN()
		e.FOMs["l0"] = f
	}
	return e
}

// refQuery draws a query for all three query kinds: randQuery's
// predicates, window and limit, a FOM, a group-by (benchmark alone puts
// one group in several shards) and a baseline window; one in four pins
// system and benchmark, the shape a bounded baseline stops early on.
func refQuery(rng *rand.Rand) (q Query, window int) {
	q = randQuery(rng)
	q.FOM = []string{"l0", "l0", "l1"}[rng.Intn(3)]
	q.GroupBy = [][]string{nil, {"system"}, {"benchmark"}, {"result", "num_tasks"}}[rng.Intn(4)]
	if rng.Intn(4) == 0 {
		q.System = []string{"archer2", "csd3", "cosma8"}[rng.Intn(3)]
		q.Benchmark = []string{"hpgmg-fv", "hpcg"}[rng.Intn(2)]
		q.GroupBy = [][]string{nil, {"benchmark"}}[rng.Intn(2)]
	}
	return q, []int{0, 1, 2, 5}[rng.Intn(4)]
}

// checkAgainstRefs fails unless Select, Aggregate and Regressions each
// answer q exactly as their reference does: entries by pointer identity
// and order, reports deeply equal, aggregates equal up to the summation
// order of Mean.
func checkAgainstRefs(t *testing.T, s *Store, q Query, window int) {
	t.Helper()
	if got, want := s.Select(q), s.selectScan(q); !sameEntries(got, want) {
		t.Fatalf("Select diverged from the reference scan: %d entries, want %d\nquery %+v", len(got), len(want), q)
	}
	if q.FOM == "" {
		q.Agg = "count"
	}
	got, err := s.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	want := s.aggregateRef(q)
	if len(got) != len(want) {
		t.Fatalf("Aggregate: %d groups, want %d\nquery %+v", len(got), len(want), q)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Group != w.Group || g.Count != w.Count || g.Unstable != w.Unstable || g.Unit != w.Unit ||
			!sameFloat(g.Min, w.Min) || !sameFloat(g.Max, w.Max) || !sameFloat(g.Last, w.Last) ||
			!(sameFloat(g.Mean, w.Mean) || math.Abs(g.Mean-w.Mean) <= 1e-9*math.Max(1, math.Abs(w.Mean))) {
			t.Fatalf("Aggregate group %q: got %+v want %+v\nquery %+v", w.Group, g, w, q)
		}
	}
	if q.FOM == "" {
		return
	}
	gotR, err := s.Regressions(q, 0.1, window)
	if err != nil {
		t.Fatal(err)
	}
	if wantR := s.regressionsRef(q, 0.1, window); !reflect.DeepEqual(gotR, wantR) {
		t.Fatalf("Regressions (window %d) diverged\ngot  %+v\nwant %+v\nquery %+v", window, gotR, wantR, q)
	}
}
