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

func (s *Store) selectScan(q Query) []*perflog.Entry { return selectArenas(q, s.arenas()) }

// arenas is every row of the store as entries: each head shard's and each
// loaded segment's, materialized.
func (s *Store) arenas() [][]stored {
	var out [][]stored
	s.seg.RLock()
	defer s.seg.RUnlock()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		c := sh.cols
		sh.mu.RUnlock()
		out = append(out, refArena(&c))
	}
	for _, g := range s.seg.list {
		d, err := g.load()
		if err != nil {
			s.noteLoadFailure(err)
			continue
		}
		out = append(out, refArena(&d.cols))
	}
	return out
}

// selectArenas is Select as a linear scan of every row with the
// per-entry predicate, then a sort.
func selectArenas(q Query, arenas [][]stored) []*perflog.Entry {
	m := q.compile()
	var hits []stored
	for _, arena := range arenas {
		for _, st := range arena {
			if !(m.hasSince && st.t < m.sinceNano) && m.matchEntry(st.entry) {
				hits = append(hits, st)
			}
		}
	}
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

// refArenas holds rows materialized once for the reference scan — the
// references run many queries — up to refArenaRows rows, when it starts
// over. Rows are never rewritten, so columns' rows up to a length are
// named by their first time slot and that length.
var refArenas = struct {
	sync.Mutex
	m    map[arenaKey][]stored
	rows int
}{m: map[arenaKey][]stored{}}

type arenaKey struct {
	first *int64
	n     int
}

const refArenaRows = 50_000

func refArena(c *columns) []stored {
	if len(c.t) == 0 {
		return nil
	}
	key := arenaKey{&c.t[0], len(c.t)}
	refArenas.Lock()
	defer refArenas.Unlock()
	a, ok := refArenas.m[key]
	if !ok {
		if refArenas.rows += len(c.t); refArenas.rows > refArenaRows {
			refArenas.m, refArenas.rows = map[arenaKey][]stored{}, len(c.t)
		}
		a = c.arena(noID)
		refArenas.m[key] = a
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
	return regressionsEntries(s.selectScan(q), q, tolerance, window, s.rsdGate())
}

// regressionsEntries evaluates the regression rule over an already
// selected, time-ascending entry slice.
func regressionsEntries(entries []*perflog.Entry, q Query, tolerance float64, window int, gate float64) []Report {
	groupBy := q.groupBy()
	series := map[string][]SeriesPoint{}
	for _, e := range entries {
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
		r, ok := EvalSeriesPoints(series[key], tolerance, window, gate)
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
// answer q exactly as their reference does over s's own rows.
func checkAgainstRefs(t *testing.T, s *Store, q Query, window int) {
	t.Helper()
	checkAnswers(t, s, q, window, s.arenas())
}

// checkAnswers fails unless Select, Aggregate and Regressions each answer
// q exactly as their reference does over the rows of arenas: entries
// deeply equal and in order, reports deeply equal, aggregates equal up to
// the summation order of Mean.
func checkAnswers(t *testing.T, s *Store, q Query, window int, arenas [][]stored) {
	t.Helper()
	selected := selectArenas(q, arenas)
	if got := s.Select(q); !sameEntries(got, selected) {
		t.Fatalf("Select diverged from the reference scan: %d entries, want %d\nquery %+v", len(got), len(selected), q)
	}
	if q.FOM == "" {
		q.Agg = "count"
	}
	got, err := s.Aggregate(q)
	if err != nil {
		t.Fatal(err)
	}
	want := aggregateEntries(selectArenas(q, arenas), q.groupBy(), q.FOM, s.rsdGate())
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
	if wantR := regressionsEntries(selected, q, 0.1, window, s.rsdGate()); !reflect.DeepEqual(gotR, wantR) {
		t.Fatalf("Regressions (window %d) diverged\ngot  %+v\nwant %+v\nquery %+v", window, gotR, wantR, q)
	}
}

// refShard is a shard as the per-entry index insert the batch pass
// replaced built it, kept as the reference appendLocked must reproduce:
// one entry per row, one key string built per posting list, and a
// binary-search insert into byTime that shifts every later row.
type refShard struct {
	rows    []stored
	byTime  []int32
	post    map[string][]int32
	systems map[string]int
}

func (sh *refShard) insert(st stored) {
	if sh.post == nil {
		sh.post, sh.systems = map[string][]int32{}, map[string]int{}
	}
	e, idx := st.entry, int32(len(sh.rows))
	sh.rows = append(sh.rows, st)
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
	if pos > 0 && sh.rows[sh.byTime[pos-1]].t > st.t {
		pos = sort.Search(len(sh.byTime), func(i int) bool {
			return sh.rows[sh.byTime[i]].t > st.t
		})
	}
	sh.byTime = append(sh.byTime, 0)
	copy(sh.byTime[pos+1:], sh.byTime[pos:])
	sh.byTime[pos] = idx
	sh.systems[e.System]++
}

// refIndex is a head as refShards, placed as s places its rows, one seq
// handed out per entry.
type refIndex struct {
	s      *Store
	shards [shardCount]refShard
	seq    uint64
}

func (ri *refIndex) addBatch(entries []*perflog.Entry, file string) {
	for _, e := range entries {
		ri.seq++
		ri.shard(e.System).insert(stored{entry: e, file: file, t: timeNanos(e.Time), seq: ri.seq})
	}
}

func (ri *refIndex) shard(system string) *refShard {
	sh := ri.s.shardFor(system)
	for i := range ri.s.shards {
		if &ri.s.shards[i] == sh {
			return &ri.shards[i]
		}
	}
	panic("no shard")
}

// evict rebuilds every shard without the rows of file, the rest
// re-inserted in row order with their seqs.
func (ri *refIndex) evict(file string) {
	for i := range ri.shards {
		old := ri.shards[i].rows
		ri.shards[i] = refShard{}
		for _, st := range old {
			if st.file != file {
				ri.shards[i].insert(st)
			}
		}
	}
}

// arenas is the reference's rows, shard by shard.
func (ri *refIndex) arenas() [][]stored {
	out := make([][]stored, len(ri.shards))
	for i := range ri.shards {
		out[i] = ri.shards[i].rows
	}
	return out
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
