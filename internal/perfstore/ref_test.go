package perfstore

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
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
	var key []byte
	for i, f := range compileGroup(groupBy) {
		if i > 0 {
			key = append(key, '/')
		}
		key = append(key, entryField(e, f)...)
	}
	return string(key)
}

// add indexes a single entry.
func (s *Store) add(e *perflog.Entry, file string) { s.addBatch([]*perflog.Entry{e}, file) }

func (s *Store) selectScan(q Query) []*perflog.Entry {
	m := q.compile()
	var hits []stored
	scan := func(arena []stored) {
		for _, st := range arena {
			if !(m.hasSince && st.t < m.sinceNano) && m.matchEntry(st.entry) {
				hits = append(hits, st)
			}
		}
	}
	s.seg.RLock()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		scan(sh.entries)
		sh.mu.RUnlock()
	}
	for _, g := range s.seg.list {
		d, err := g.load()
		if err != nil {
			s.noteLoadFailure(err)
			continue
		}
		scan(refArena(d.cols))
	}
	s.seg.RUnlock()
	slices.SortFunc(hits, cmpStored)
	if q.Limit > 0 && len(hits) > q.Limit {
		hits = hits[len(hits)-q.Limit:]
	}
	out := make([]*perflog.Entry, len(hits))
	for i, st := range hits {
		out[i] = st.entry
	}
	return out
}

// refArenas holds segments' rows materialized once for the reference
// scan — columns never change, and the references run many queries — up
// to refArenaRows rows, when it starts over.
var refArenas = struct {
	sync.Mutex
	m    map[*columns][]stored
	rows int
}{m: map[*columns][]stored{}}

const refArenaRows = 50_000

func refArena(c *columns) []stored {
	refArenas.Lock()
	defer refArenas.Unlock()
	a, ok := refArenas.m[c]
	if !ok {
		if refArenas.rows += len(c.t); refArenas.rows > refArenaRows {
			refArenas.m, refArenas.rows = map[*columns][]stored{}, len(c.t)
		}
		a = c.arena(noID)
		refArenas.m[c] = a
	}
	return a
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
	byGroup := map[string]*Aggregate{}
	stableCount := map[string]int{}
	var order []string
	for _, e := range entries {
		key := GroupKey(e, groupBy)
		agg := byGroup[key]
		if agg == nil {
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

// addLockedRef is the per-entry index insert the batch pass replaced,
// kept as the reference addLocked must reproduce exactly: one key string
// built per posting list, and a binary-search insert into byTime that
// shifts every later row. Callers hold sh.mu.
func (sh *shard) addLockedRef(e *perflog.Entry, file string, seq uint64) {
	idx := int32(len(sh.entries))
	t := timeNanos(e.Time)
	sh.entries = append(sh.entries, stored{entry: e, file: file, t: t, seq: seq})
	sh.post[keySystem(e.System)] = append(sh.post[keySystem(e.System)], idx)
	sh.post[keyBenchmark(e.Benchmark)] = append(sh.post[keyBenchmark(e.Benchmark)], idx)
	if e.Result != "" {
		sh.post[keyResult(e.Result)] = append(sh.post[keyResult(e.Result)], idx)
	}
	for name := range e.FOMs {
		sh.post[keyFOM(name)] = append(sh.post[keyFOM(name)], idx)
	}
	for k, v := range e.Extra {
		sh.post[keyExtra(k, v)] = append(sh.post[keyExtra(k, v)], idx)
	}
	pos := len(sh.byTime)
	if pos > 0 && sh.entries[sh.byTime[pos-1]].t > t {
		pos = sort.Search(len(sh.byTime), func(i int) bool {
			return sh.entries[sh.byTime[i]].t > t
		})
	}
	sh.byTime = append(sh.byTime, 0)
	copy(sh.byTime[pos+1:], sh.byTime[pos:])
	sh.byTime[pos] = idx
	sh.systems[e.System]++
}

// addBatchRef is addBatch over addLockedRef: one seq per entry, handed
// out under the shard lock.
func (s *Store) addBatchRef(entries []*perflog.Entry, file string) {
	if len(entries) == 0 {
		return
	}
	for i := 0; i < len(entries); {
		sh := s.shardFor(entries[i].System)
		sh.mu.Lock()
		j := i
		for j < len(entries) && s.shardFor(entries[j].System) == sh {
			sh.addLockedRef(entries[j], file, s.seq.Add(1))
			j++
		}
		sh.mu.Unlock()
		i = j
	}
	s.gen.Add(1)
}

// buildPostings indexes an immutable (t, seq)-sorted arena with the
// same posting-list keys the head shards maintain incrementally, one
// key string per posting: the reference the postings decodeSegment
// buckets by dictionary id are tested against.
func buildPostings(entries []stored) map[string][]int32 {
	post := map[string][]int32{}
	for i := range entries {
		idx := int32(i)
		e := entries[i].entry
		post[keySystem(e.System)] = append(post[keySystem(e.System)], idx)
		post[keyBenchmark(e.Benchmark)] = append(post[keyBenchmark(e.Benchmark)], idx)
		if e.Result != "" {
			post[keyResult(e.Result)] = append(post[keyResult(e.Result)], idx)
		}
		for name := range e.FOMs {
			post[keyFOM(name)] = append(post[keyFOM(name)], idx)
		}
		for k, v := range e.Extra {
			post[keyExtra(k, v)] = append(post[keyExtra(k, v)], idx)
		}
	}
	return post
}

// readTailRef is readTail as a bufio line loop, one string per line: the
// reference the chunked reader must match in entries, quarantined lines,
// bytes consumed and error text.
func readTailRef(path string, from, to int64) fileTail {
	t := fileTail{from: from}
	read := func() error {
		if err := faultinject.Fire("perfstore.sync"); err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return err
		}
		from := t.from
		if to < 0 {
			if to = st.Size(); to < from {
				t.shrunk = true
				from = 0
			}
		}
		if to == from {
			return nil
		}
		if _, err := f.Seek(from, io.SeekStart); err != nil {
			return err
		}
		r := bufio.NewReaderSize(faultinject.Reader("perfstore.read", io.LimitReader(f, to-from)), 64*1024)
		for {
			line, err := r.ReadString('\n')
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			text := strings.TrimSpace(line)
			if text != "" && text != "|" && !strings.HasPrefix(text, "#") {
				e, perr := perflog.ParseLine(text)
				if perr != nil {
					t.Bad = append(t.Bad, perflog.BadLine{File: path, Offset: from + t.Bytes, Length: len(line), Error: perr.Error()})
				} else {
					t.Entries = append(t.Entries, e)
				}
			}
			t.Bytes += int64(len(line))
		}
	}
	if err := read(); err != nil {
		t.err = fmt.Errorf("perfstore: %w", err)
	}
	return t
}

// evalSeries applies the regression rule to a plain value series: stat-
// less points with the variance gate off, the pre-repetition rule.
func evalSeries(vals []float64, tolerance float64, window int) (Report, bool) {
	points := make([]SeriesPoint, len(vals))
	for i, v := range vals {
		points[i] = SeriesPoint{Value: v}
	}
	return EvalSeriesPoints(points, tolerance, window, 0)
}
