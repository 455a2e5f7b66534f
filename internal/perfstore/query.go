package perfstore

import (
	"fmt"
	"math"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/perflog"
)

// Query selects entries from the store. Zero-valued fields match
// everything.
type Query struct {
	System    string
	Benchmark string
	// FOM requires the named figure of merit to be present; it is also
	// the value column for Aggregate and Regressions.
	FOM string
	// Result filters on "pass"/"fail"; empty admits both.
	Result string
	// Extra filters on run parameters (num_tasks=8, ...); every pair
	// must match.
	Extra map[string]string
	// Since keeps entries with Time >= Since.
	Since time.Time
	// Limit keeps the most recent N matching entries (0 = all).
	Limit int
	// GroupBy names identity fields or extras to aggregate over.
	GroupBy []string
	// Agg selects the aggregate: min, max, mean, last, count.
	Agg string
}

// groupBy is the query's group-by fields, defaulted.
func (q Query) groupBy() []string {
	if len(q.GroupBy) == 0 {
		return []string{"system", "benchmark"}
	}
	return q.GroupBy
}

// matcher is a Query compiled once per call: the extras map is
// flattened into a deterministic slice (no per-entry map iteration),
// the Since check is precomputed, and the posting-list keys for every
// indexed predicate are ready for the shard planner.
type matcher struct {
	q        Query
	extras   []extraKV
	hasSince bool
	// sinceNano is Since as the store's integer ordering key; every
	// path (index, time view, scan) filters with it so they agree on
	// the window boundary by construction.
	sinceNano int64
	// keys are the posting-list keys of the query's equality
	// predicates; empty means "everything matches except Since".
	keys []string
	// group is the fields an Aggregate or Regressions groups by, and rep
	// reads the repetition statistics of its FOM when withRep is set;
	// Select sets neither.
	group   []groupField
	rep     perflog.RepStatsReader
	withRep bool
}

type extraKV struct{ k, v string }

func (q Query) compile() *matcher {
	m := &matcher{q: q, hasSince: !q.Since.IsZero()}
	if m.hasSince {
		m.sinceNano = timeNanos(q.Since)
	}
	if q.System != "" {
		m.keys = append(m.keys, keySystem(q.System))
	}
	if q.Benchmark != "" {
		m.keys = append(m.keys, keyBenchmark(q.Benchmark))
	}
	if q.Result != "" {
		m.keys = append(m.keys, keyResult(q.Result))
	}
	if q.FOM != "" {
		m.keys = append(m.keys, keyFOM(q.FOM))
	}
	if len(q.Extra) > 0 {
		m.extras = make([]extraKV, 0, len(q.Extra))
		for k, v := range q.Extra {
			m.extras = append(m.extras, extraKV{k, v})
			m.keys = append(m.keys, keyExtra(k, v))
		}
		sort.Slice(m.extras, func(i, j int) bool { return m.extras[i].k < m.extras[j].k })
	}
	return m
}

// aggNames is the vocabulary ParseQuery accepts for agg=.
var aggNames = map[string]bool{
	"min": true, "max": true, "mean": true, "last": true, "count": true,
}

// ParseQuery decodes URL query parameters (the GET /v1/query wire
// format, also fuzzed) into a Query. Recognised keys:
//
//	system, benchmark, fom, result, since (RFC3339), limit,
//	group_by (comma-separated), agg (min|max|mean|last|count),
//	extra.<key>=<value>
//
// Unknown keys are rejected so that typos fail loudly instead of
// silently matching everything.
func ParseQuery(rawQuery string) (Query, error) {
	var q Query
	values, err := url.ParseQuery(rawQuery)
	if err != nil {
		return q, fmt.Errorf("perfstore: bad query string: %w", err)
	}
	for key, vals := range values {
		val := vals[len(vals)-1]
		switch key {
		case "system":
			q.System = val
		case "benchmark":
			q.Benchmark = val
		case "fom":
			q.FOM = val
		case "result":
			if val != "pass" && val != "fail" && val != "" {
				return q, fmt.Errorf("perfstore: result must be pass or fail, got %q", val)
			}
			q.Result = val
		case "since":
			t, err := time.Parse(time.RFC3339, val)
			if err != nil {
				return q, fmt.Errorf("perfstore: bad since timestamp %q", val)
			}
			q.Since = t
		case "limit":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return q, fmt.Errorf("perfstore: bad limit %q", val)
			}
			q.Limit = n
		case "group_by":
			for _, f := range strings.Split(val, ",") {
				f = strings.TrimSpace(f)
				if f == "" {
					return q, fmt.Errorf("perfstore: empty group_by field")
				}
				q.GroupBy = append(q.GroupBy, f)
			}
		case "agg":
			if !aggNames[val] {
				return q, fmt.Errorf("perfstore: unknown agg %q (want min|max|mean|last|count)", val)
			}
			q.Agg = val
		default:
			if name, ok := strings.CutPrefix(key, "extra."); ok && name != "" {
				if q.Extra == nil {
					q.Extra = map[string]string{}
				}
				q.Extra[name] = val
				continue
			}
			return q, fmt.Errorf("perfstore: unknown query key %q", key)
		}
	}
	if q.Agg != "" && q.Agg != "count" && q.FOM == "" {
		return q, fmt.Errorf("perfstore: agg=%s needs fom=", q.Agg)
	}
	return q, nil
}

// Encode renders the query in the GET /v1/query wire format, with keys
// sorted — a canonical form: any query ParseQuery accepts round-trips
// through Encode to an equivalent Query (fuzzed), and equal queries
// encode identically, which makes Encode a cache key.
func (q Query) Encode() string {
	v := url.Values{}
	if q.System != "" {
		v.Set("system", q.System)
	}
	if q.Benchmark != "" {
		v.Set("benchmark", q.Benchmark)
	}
	if q.FOM != "" {
		v.Set("fom", q.FOM)
	}
	if q.Result != "" {
		v.Set("result", q.Result)
	}
	for k, val := range q.Extra {
		v.Set("extra."+k, val)
	}
	if !q.Since.IsZero() {
		// Nano form: ParseQuery accepts fractional seconds, so Encode
		// must not drop them or the round-trip would lose time.
		v.Set("since", q.Since.Format(time.RFC3339Nano))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if len(q.GroupBy) > 0 {
		v.Set("group_by", strings.Join(q.GroupBy, ","))
	}
	if q.Agg != "" {
		v.Set("agg", q.Agg)
	}
	return v.Encode()
}

// Aggregate is one group's summary over a FOM. Entries whose repetition
// RSD trips the store's variance gate are counted in Count and Unstable
// but excluded from Min/Max/Mean/Last: a mean polluted by runs the
// protocol itself measured as noise would misreport the group.
type Aggregate struct {
	Group string  `json:"group"`
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Last  float64 `json:"last"`
	Unit  string  `json:"unit,omitempty"`
	// Unstable counts entries excluded by the variance gate.
	Unstable int `json:"unstable,omitempty"`
}

// The plan a leg's scan took. Every leg of a query picks its own.
const (
	planNone     = iota // nothing to read: empty window, or a predicate value with no posting list
	planTime            // no indexed predicate: the time order is the answer
	planWindow          // walked the time order, checking the predicates row by row
	planPostings        // intersected the posting lists
	planCount
)

// scan is the one query plan: it visits the rows of one leg that match m
// until visit returns false, and reports the plan it took and how many
// rows it read. Select, Aggregate and Regressions all run on it, on both
// tiers. Before the first visit it tells reserve (when not nil) the most
// rows it can visit, so a caller collecting them allocates once.
//
// It reads the time window first — Since binary-searches its lower bound
// in the time order — and then picks the smaller candidate set: when the
// window is shorter than the rarest posting list (always, without an
// indexed predicate) it walks the window in (time, seq) order and checks
// the predicates row by row (leg.match); otherwise it intersects the
// posting lists, drops rows before Since, and visits in row order —
// (time, seq) order for a segment, ingest order for a shard.
//
// Newest first is for a visitor that stops once it has enough (a Limit,
// a bounded baseline): rows always arrive newest first, and before
// intersecting anything the scan walks back from the newest row over as
// many rows as the rarest list holds — recent matches are usually near
// the top, and the detour at most doubles the work of the intersection it
// usually saves. If the visitor is still hungry the intersection serves
// the rows older than the walk reached.
func (l *leg) scan(newestFirst bool, reserve func(rows int), visit func(hit) bool) (plan, read int) {
	m := l.m
	n := l.rows()
	lo := 0
	if m.hasSince {
		lo = sort.Search(n, func(i int) bool {
			t, _ := l.key(l.at(i))
			return t >= m.sinceNano
		})
	}
	if lo == n || l.none() {
		return planNone, 0
	}
	if reserve == nil {
		reserve = func(int) {}
	}
	walk := n - lo // rows the time order serves: rows [lo, lo+walk), or [n-walk, n) newest first
	plan = planTime
	var lists [][]int32
	if len(m.keys) > 0 {
		if lists = l.lists(m.keys); lists == nil {
			return planNone, 0
		}
		plan = planWindow
		if rarest := len(lists[0]); rarest <= walk {
			plan, walk = planPostings, 0
			if newestFirst {
				walk = rarest
			}
		}
	}
	if walk > 0 {
		reserve(walk)
	}
	from, step := lo, 1
	if newestFirst {
		from, step = n-1, -1
	}
	for i := 0; i < walk; i++ {
		row := l.at(from + i*step)
		if (plan == planTime || l.match(row)) && !visit(hit{l, row}) {
			return min(plan, planWindow), i + 1 // the walk was enough: no intersection ran
		}
	}
	if walk == n-lo {
		return min(plan, planWindow), walk // the walk covered the window
	}
	idxs := intersect(lists)
	if newestFirst && l.byTime != nil && !slices.IsSortedFunc(idxs, l.cmp) {
		idxs = slices.Clone(idxs) // a shard that ingested out of order
		slices.SortFunc(idxs, l.cmp)
	}
	reached := int32(-1) // the oldest row the walk already served
	if walk > 0 {
		reached = l.at(n - walk)
	} else {
		reserve(len(idxs))
	}
	if from, step = 0, 1; newestFirst {
		from, step = len(idxs)-1, -1
	}
	for i := range idxs {
		row := idxs[from+i*step]
		if t, _ := l.key(row); m.hasSince && t < m.sinceNano || reached >= 0 && l.cmp(row, reached) >= 0 {
			continue
		}
		if !visit(hit{l, row}) {
			break
		}
	}
	return plan, walk + len(lists[0])
}

// scanLegs runs fn over every leg of the store — sealed segments in
// manifest order (oldest first), then the head shards — on the bounded
// worker pool, and returns the per-leg results in that order. A segment
// whose zone map ends before Since is skipped without touching disk; one
// whose data block cannot be loaded is served as absent and counted.
//
// The segment read lock is held across the whole fan, so a concurrent
// Seal (segment published + head cleared under the write lock) is atomic
// to the query — every entry is observed in exactly one tier.
func scanLegs[T any](s *Store, m *matcher, fn func(l *leg) (out T, plan, read int)) []T {
	s.seg.RLock()
	defer s.seg.RUnlock()
	segs := s.seg.list
	out := make([]T, len(segs)+shardCount)
	legs := make([]leg, len(out))
	var took [planCount]atomic.Bool
	var rows atomic.Int64
	fanN(len(out), func(i int) {
		var v *view
		if i < len(segs) {
			g := segs[i]
			if m.hasSince && g.info.MaxT < m.sinceNano {
				metricSegmentsPruned.Inc()
				return
			}
			var err error
			if v, err = g.load(); err != nil {
				s.noteLoadFailure(err)
				return
			}
		} else {
			sh := &s.shards[i-len(segs)]
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			v = &sh.view
		}
		if v.rows() == 0 {
			return // an empty shard: spare the leg its set-up
		}
		l := &legs[i]
		l.bind(v, m)
		var plan, read int
		out[i], plan, read = fn(l)
		took[plan].Store(true)
		rows.Add(int64(read))
	})
	for plan := planTime; plan < planCount; plan++ {
		if took[plan].Load() {
			metricQueries[plan].Inc()
		}
	}
	metricRowsVisited.Add(float64(rows.Load()))
	return out
}

// selectLegs is Select before the merge: each leg's matching rows in
// (time, seq) order, trimmed to the leg's most recent limit when
// limit > 0 — the global answer is a subset of those tails.
func (s *Store) selectLegs(m *matcher, limit int) [][]hit {
	return scanLegs(s, m, func(l *leg) ([]hit, int, int) {
		var hits []hit
		plan, read := l.scan(limit > 0, func(rows int) {
			if limit > 0 {
				rows = min(rows, limit)
			}
			hits = make([]hit, 0, rows)
		}, func(h hit) bool {
			hits = append(hits, h)
			return len(hits) != limit
		})
		if limit > 0 {
			slices.Reverse(hits) // arrived newest first
		} else if plan == planPostings && l.byTime != nil {
			slices.SortFunc(hits, cmpHits) // arrived in ingest order
		}
		return hits, plan, read
	})
}

// Select returns the entries matching the query, ordered by timestamp
// ascending (ties keep ingest order). A Limit keeps the most recent
// Limit entries — the tail of the time series.
//
// Every leg — each head shard, each sealed segment — runs the one scan
// (view.scan): the Since window is located in the leg's time order first,
// and the leg then reads whichever is shorter, the window (checking the
// equality predicates row by row) or the rarest posting list among the
// query's predicates (system, benchmark, result, FOM presence, extras —
// all indexed in both tiers). With a Limit the scan runs newest first and
// stops as soon as the leg's tail is full, so no leg collects a row
// outside its own most recent Limit. The legs run in parallel on a
// bounded worker pool (scanLegs) and merge in (time, ingest) order; with
// a Limit the merge keeps the newest Limit of the per-leg tails.
func (s *Store) Select(q Query) []*perflog.Entry {
	return mergeHits(s.selectLegs(q.compile(), q.Limit), q.Limit)
}

// partialAgg is one group's running summary inside a single leg — the
// unit of Aggregate's map-merge. (lastT, lastSeq) identify the group's
// latest entry in global (time, ingest) order, so merging partials from
// different legs still yields the true Last.
type partialAgg struct {
	group    string
	count    int
	stable   int // entries contributing to min/max/sum/last
	unstable int // entries excluded by the variance gate
	min, max float64
	sum      float64
	last     float64
	lastT    int64 // timeNanos of the entry that supplied last
	lastSeq  uint64
	unit     string
}

func (p *partialAgg) merge(o *partialAgg) {
	p.count += o.count
	p.unstable += o.unstable
	p.min = math.Min(p.min, o.min)
	p.max = math.Max(p.max, o.max)
	p.sum += o.sum
	if o.stable > 0 && (p.stable == 0 || o.lastT > p.lastT || (o.lastT == p.lastT && o.lastSeq > p.lastSeq)) {
		p.last = o.last
		p.lastT = o.lastT
		p.lastSeq = o.lastSeq
		p.unit = o.unit
	}
	p.stable += o.stable
}

// aggregator folds rows into per-group partials: one per leg, so the
// key buffer and the map are never shared between workers.
type aggregator struct {
	values bool // fold the query's FOM, not only counts
	gate   float64
	key    []byte
	groups map[string]*partialAgg
}

func newAggregator(values bool, gate float64) *aggregator {
	return &aggregator{values: values, gate: gate, groups: map[string]*partialAgg{}}
}

// observe folds one row in. It is a scan visitor that never stops.
func (a *aggregator) observe(h hit) bool {
	a.key = h.groupKey(a.key[:0])
	p := a.groups[string(a.key)]
	if p == nil {
		p = &partialAgg{group: string(a.key), min: math.Inf(1), max: math.Inf(-1)}
		a.groups[p.group] = p
	}
	p.count++
	if !a.values {
		return true
	}
	if a.gate > 0 {
		// The variance gate: repetition stats (n >= 2) whose RSD exceeds it.
		if s, ok := h.repStats(); ok && s.N >= 2 && s.RSD > a.gate {
			p.unstable++
			return true
		}
	}
	p.stable++
	v, unit := h.value()
	p.min = math.Min(p.min, v)
	p.max = math.Max(p.max, v)
	p.sum += v
	if t, seq := h.key(); p.stable == 1 || t > p.lastT || (t == p.lastT && seq > p.lastSeq) {
		p.last = v
		p.lastT = t
		p.lastSeq = seq
		p.unit = unit
	}
	return true
}

// Aggregate groups the matching entries by q.GroupBy (default
// system,benchmark) and summarises q.FOM per group: min, max, mean, and
// the latest value by timestamp. With Agg=count, q.FOM may be empty and
// only Count is meaningful.
//
// Without a Limit the legs aggregate independently inside the scan and
// the per-group partials are map-merged — no entry slice is ever
// materialized. A Limit makes the group contents depend on the global
// most-recent cut, so that case folds the newest Limit of the per-leg
// tails instead.
func (s *Store) Aggregate(q Query) ([]Aggregate, error) {
	if q.FOM == "" && q.Agg != "count" {
		return nil, fmt.Errorf("perfstore: aggregate needs Query.FOM")
	}
	gate, m := s.rsdGate(), q.compile()
	m.group = compileGroup(q.groupBy())
	if q.FOM != "" && gate > 0 {
		m.rep, m.withRep = perflog.NewRepStatsReader(q.FOM), true
	}
	var parts []*aggregator
	if q.Limit > 0 {
		a := newAggregator(q.FOM != "", gate)
		for _, h := range newestHits(s.selectLegs(m, q.Limit), q.Limit) {
			a.observe(h)
		}
		parts = []*aggregator{a}
	} else {
		parts = scanLegs(s, m, func(l *leg) (*aggregator, int, int) {
			a := newAggregator(q.FOM != "", gate)
			plan, read := l.scan(false, nil, a.observe)
			return a, plan, read
		})
	}
	merged := map[string]*partialAgg{}
	for _, part := range parts {
		if part == nil {
			continue // a leg that never ran: pruned, unloadable or empty
		}
		for key, pa := range part.groups {
			if cur := merged[key]; cur != nil {
				cur.merge(pa)
			} else {
				merged[key] = pa
			}
		}
	}
	keys := make([]string, 0, len(merged))
	for key := range merged {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]Aggregate, 0, len(keys))
	for _, key := range keys {
		pa := merged[key]
		agg := Aggregate{Group: pa.group, Count: pa.count, Unstable: pa.unstable}
		if q.FOM != "" && pa.stable > 0 {
			agg.Min, agg.Max = pa.min, pa.max
			agg.Mean = pa.sum / float64(pa.stable)
			agg.Last = pa.last
			agg.Unit = pa.unit
		}
		out = append(out, agg)
	}
	return out, nil
}
