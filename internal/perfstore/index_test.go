package perfstore

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/fom"
	"repro/internal/perflog"
)

// randEntry builds one synthetic entry from a seeded PRNG. The value
// pools are small on purpose: queries then hit real overlaps between
// posting lists.
func randEntry(rng *rand.Rand, i int) *perflog.Entry {
	systems := []string{"archer2", "csd3", "cosma8", "isambard-macs", "paderborn-milan"}
	benchmarks := []string{"hpgmg-fv", "hpcg", "babelstream-omp"}
	results := []string{"pass", "pass", "pass", "fail"}
	e := &perflog.Entry{
		// Timestamps deliberately collide and arrive out of order: the
		// (time, seq) tie-break and the byTime insert path both get
		// exercised.
		Time:      t0.Add(time.Duration(rng.Intn(500)) * time.Minute),
		Benchmark: benchmarks[rng.Intn(len(benchmarks))],
		System:    systems[rng.Intn(len(systems))],
		Partition: "compute",
		Environ:   "gcc",
		JobID:     i,
		Result:    results[rng.Intn(len(results))],
		FOMs:      map[string]fom.Value{},
		Extra:     map[string]string{"num_tasks": strconv.Itoa(8 << rng.Intn(3))},
	}
	e.Spec = e.Benchmark + "%gcc"
	e.FOMs["l0"] = fom.Value{Name: "l0", Value: 50 + rng.Float64()*100, Unit: "MDOF/s"}
	if rng.Intn(2) == 0 {
		e.FOMs["l1"] = fom.Value{Name: "l1", Value: 40 + rng.Float64()*80, Unit: "MDOF/s"}
	}
	if rng.Intn(4) == 0 {
		e.Extra["gpu"] = "v100"
	}
	return e
}

// memStore indexes n random entries directly (no disk), deterministic
// in the seed.
func memStore(seed int64, n int) *Store {
	rng := rand.New(rand.NewSource(seed))
	s := Open("unused")
	for i := 0; i < n; i++ {
		s.add(randEntry(rng, i), "mem.log")
	}
	return s
}

// randQuery draws a query whose predicates sometimes match and
// sometimes cannot (unknown system, absent FOM), covering both planner
// outcomes.
func randQuery(rng *rand.Rand) Query {
	var q Query
	if rng.Intn(2) == 0 {
		q.System = []string{"archer2", "csd3", "cosma8", "no-such-system"}[rng.Intn(4)]
	}
	if rng.Intn(2) == 0 {
		q.Benchmark = []string{"hpgmg-fv", "hpcg", "babelstream-omp", "nope"}[rng.Intn(4)]
	}
	if rng.Intn(3) == 0 {
		q.Result = []string{"pass", "fail"}[rng.Intn(2)]
	}
	if rng.Intn(3) == 0 {
		q.FOM = []string{"l0", "l1", "absent"}[rng.Intn(3)]
	}
	if rng.Intn(3) == 0 {
		q.Extra = map[string]string{"num_tasks": strconv.Itoa(8 << rng.Intn(4))}
		if rng.Intn(3) == 0 {
			q.Extra["gpu"] = "v100"
		}
	}
	if rng.Intn(3) == 0 {
		q.Since = t0.Add(time.Duration(rng.Intn(600)-50) * time.Minute)
	}
	if rng.Intn(3) == 0 {
		q.Limit = 1 + rng.Intn(40)
	}
	return q
}

func sameEntries(a, b []*perflog.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { // pointer identity: byte-identical by construction
			return false
		}
	}
	return true
}

// TestSelectIndexMatchesScan is the index-correctness property test:
// for randomized stores and randomized queries, the posting-list /
// time-view plan must return exactly the slice the reference linear
// scan returns — same entries, same order.
func TestSelectIndexMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		s := memStore(seed, 2000)
		rng := rand.New(rand.NewSource(seed * 77))
		for trial := 0; trial < 300; trial++ {
			q := randQuery(rng)
			got := s.Select(q)
			want := s.selectScan(q)
			if !sameEntries(got, want) {
				t.Fatalf("seed %d trial %d: index path diverged from scan path\nquery %+v\ngot  %d entries\nwant %d entries",
					seed, trial, q, len(got), len(want))
			}
		}
	}
}

// TestAggregateIndexMatchesScan checks the map-merged parallel
// aggregation against the sequential reference over the scan path.
// Count, Min, Max, Last, Unit, and Group must be identical; Mean is
// compared within floating-point tolerance because the partial sums
// legitimately reduce in a different order.
func TestAggregateIndexMatchesScan(t *testing.T) {
	s := memStore(9, 3000)
	rng := rand.New(rand.NewSource(99))
	groupChoices := [][]string{nil, {"system"}, {"system", "benchmark"}, {"result", "num_tasks"}}
	for trial := 0; trial < 200; trial++ {
		q := randQuery(rng)
		q.FOM = []string{"l0", "l1"}[rng.Intn(2)]
		q.GroupBy = groupChoices[rng.Intn(len(groupChoices))]
		got, err := s.Aggregate(q)
		if err != nil {
			t.Fatal(err)
		}
		groupBy := q.GroupBy
		if len(groupBy) == 0 {
			groupBy = []string{"system", "benchmark"}
		}
		want := aggregateEntries(s.selectScan(q), groupBy, q.FOM, s.rsdGate())
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d groups, want %d (query %+v)", trial, len(got), len(want), q)
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Group != w.Group || g.Count != w.Count || g.Min != w.Min ||
				g.Max != w.Max || g.Last != w.Last || g.Unit != w.Unit {
				t.Fatalf("trial %d group %q: got %+v want %+v (query %+v)", trial, w.Group, g, w, q)
			}
			if math.Abs(g.Mean-w.Mean) > 1e-9*math.Max(1, math.Abs(w.Mean)) {
				t.Fatalf("trial %d group %q: mean %g want %g", trial, w.Group, g.Mean, w.Mean)
			}
		}
	}
}

// TestRegressionsIndexMatchesScan: the regression evaluator over the
// parallel Select must agree exactly with the reference grouping over
// the scan path — the per-group series are identical slices, so the
// float math is bit-identical.
func TestRegressionsIndexMatchesScan(t *testing.T) {
	s := memStore(5, 3000)
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 100; trial++ {
		q := randQuery(rng)
		q.FOM = "l0"
		q.GroupBy = []string{"system", "benchmark"}
		got, err := s.Regressions(q, 0.1, 5)
		if err != nil {
			t.Fatal(err)
		}
		series := map[string][]float64{}
		for _, e := range s.selectScan(q) {
			key := GroupKey(e, q.GroupBy)
			series[key] = append(series[key], e.FOMs[q.FOM].Value)
		}
		keys := make([]string, 0, len(series))
		for k := range series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var want []Report
		for _, key := range keys {
			r, ok := EvalSeries(series[key], 0.1, 5)
			if !ok {
				continue
			}
			r.Group = key
			want = append(want, r)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: regressions diverged\ngot  %+v\nwant %+v\nquery %+v", trial, got, want, q)
		}
	}
}

// TestQueriesMatchReferencesHead is the property test of the one scan on
// the head: on stores whose timestamps collide and arrive out of order,
// before and after evictions heavy enough to compact the shard arenas,
// every randomized query — predicates, Since, Limit, group-bys that span
// shards, bounded and unbounded baselines, entries with and without
// repetition statistics — must answer exactly as the reference scan.
func TestQueriesMatchReferencesHead(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := Open("unused")
		for i := 0; i < 2000; i++ {
			s.add(refEntry(rng, i), []string{"a.log", "b.log", "b.log", "c.log"}[rng.Intn(4)])
		}
		qrng := rand.New(rand.NewSource(seed * 313))
		check := func(trials int) {
			t.Helper()
			for trial := 0; trial < trials; trial++ {
				q, window := refQuery(qrng)
				checkAgainstRefs(t, s, q, window)
			}
		}
		check(150)
		for _, file := range []string{"b.log", "c.log"} { // three quarters of every arena: forces compaction
			s.ckMu.Lock()
			err := s.evictFile(file)
			s.ckMu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			check(75)
		}
	}
}

// scanOne runs q's scan on the one shard that holds system "a" and
// returns the plan it took, the rows it read and the entries it visited.
func scanOne(s *Store, q Query, newestFirst bool, stopAfter int) (plan, read int, jobs []int) {
	sh := s.shardFor("a")
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	plan, read = sh.view.scan(q.compile(), newestFirst, nil, func(h hit) bool {
		jobs = append(jobs, h.e.JobID)
		return len(jobs) != stopAfter
	})
	return plan, read, jobs
}

// TestScanPlanBoundaries pins the choice rule at its edges on a shard
// small enough to count by hand: 100 entries a minute apart, the oldest
// 40 of them carrying l1.
func TestScanPlanBoundaries(t *testing.T) {
	s := Open("unused")
	for i := 0; i < 100; i++ {
		foms := map[string]float64{"l0": float64(i)}
		if i < 40 {
			foms["l1"] = float64(i)
		}
		s.add(entry("a", "bench", i, t0.Add(time.Duration(i)*time.Minute), foms), "mem.log")
	}
	since := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Minute) }
	for _, tc := range []struct {
		name        string
		q           Query
		newestFirst bool
		stopAfter   int
		plan, read  int
		first, n    int // first visited job, and how many
	}{
		{"no predicate reads the window", Query{Since: since(90)}, false, 0, planTime, 10, 90, 10},
		{"window shorter than the rarest list is walked", Query{FOM: "l1", Since: since(61)}, false, 0, planWindow, 39, 0, 0},
		{"as long as it and the lists are intersected", Query{FOM: "l1", Since: since(60)}, false, 0, planPostings, 40, 0, 0},
		{"every row carries the predicate: arena order, as without an index", Query{FOM: "l0"}, false, 0, planPostings, 100, 0, 100},
		{"and newest first the walk covers it", Query{FOM: "l0"}, true, 0, planWindow, 100, 99, 100},
		{"lists shorter than the window, rows before Since dropped", Query{FOM: "l1", Since: since(30)}, false, 0, planPostings, 40, 30, 10},
		{"empty window", Query{FOM: "l0", Since: since(100)}, false, 0, planNone, 0, 0, 0},
		{"unknown predicate value", Query{System: "nope"}, false, 0, planNone, 0, 0, 0},
		{"limit without predicate stops at the tail", Query{}, true, 3, planTime, 3, 99, 3},
		{"limit with a predicate the newest rows satisfy", Query{FOM: "l0", Result: "pass"}, true, 3, planWindow, 3, 99, 3},
		{"limit with a predicate only old rows satisfy", Query{FOM: "l1"}, true, 3, planPostings, 80, 39, 3},
	} {
		plan, read, jobs := scanOne(s, tc.q, tc.newestFirst, tc.stopAfter)
		if plan != tc.plan || read != tc.read || len(jobs) != tc.n || (tc.n > 0 && jobs[0] != tc.first) {
			t.Errorf("%s: plan %d read %d visited %v, want plan %d read %d and %d rows from job %d",
				tc.name, plan, read, jobs, tc.plan, tc.read, tc.n, tc.first)
		}
		tc.q.Limit = tc.stopAfter
		checkAgainstRefs(t, s, tc.q, 5)
	}
}

// TestSelectLimitAcrossShards pins the bounded merge: with tied
// timestamps spread over many shards, Limit must keep exactly the
// globally most recent entries in (time, ingest) order.
func TestSelectLimitAcrossShards(t *testing.T) {
	s := Open("unused")
	var all []*perflog.Entry
	for i := 0; i < 200; i++ {
		e := entry(fmt.Sprintf("sys-%02d", i%23), "bench", i, t0.Add(time.Duration(i%7)*time.Hour), map[string]float64{"l0": float64(i)})
		s.add(e, "mem.log")
		all = append(all, e)
	}
	for _, limit := range []int{1, 3, 17, 199, 200, 500} {
		got := s.Select(Query{Limit: limit})
		want := s.selectScan(Query{Limit: limit})
		if !sameEntries(got, want) {
			t.Fatalf("limit %d: merge diverged (%d vs %d entries)", limit, len(got), len(want))
		}
		if limit < len(all) && len(got) != limit {
			t.Fatalf("limit %d returned %d entries", limit, len(got))
		}
	}
}

// TestEvictionKeepsIndexConsistent drives repeated truncation/rewrite
// cycles through SyncFile — enough of them to force shard compaction —
// and after every cycle the indexed results must match both the
// reference scan and a from-scratch store over the same tree.
func TestEvictionKeepsIndexConsistent(t *testing.T) {
	root := t.TempDir()
	s := Open(root)
	path := filepath.Join(root, "archer2", "hpgmg-fv.log")
	for cycle := 0; cycle < 8; cycle++ {
		// Rewrite the file with a fresh population, shrinking and growing
		// across cycles so both the evict path and plain appends run.
		n := 3 + (cycle*5)%11
		var lines []byte
		for i := 0; i < n; i++ {
			e := entry("archer2", "hpgmg-fv", cycle*100+i, t0.Add(time.Duration(i)*time.Minute), map[string]float64{"l0": float64(i)})
			lines = append(lines, (e.Line() + "\n")...)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		// Truncate-then-rewrite, syncing in between: the shrink below the
		// checkpoint is what the store defines as a rewrite (a same-size
		// or longer rewrite is indistinguishable from an append).
		if cycle > 0 {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
			if err := s.SyncFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(path, lines, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.SyncFile(path); err != nil {
			t.Fatal(err)
		}
		// Keep a second, untouched system in play so eviction filtering
		// has innocent bystanders to preserve.
		if cycle == 0 {
			e := entry("csd3", "hpgmg-fv", 1, t0, map[string]float64{"l0": 126})
			if err := s.Append("csd3", "hpgmg-fv", e); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []Query{{}, {System: "archer2"}, {System: "csd3"}, {Benchmark: "hpgmg-fv", Limit: 4}, {FOM: "l0", Since: t0.Add(3 * time.Minute)}} {
			if got, want := s.Select(q), s.selectScan(q); !sameEntries(got, want) {
				t.Fatalf("cycle %d query %+v: index diverged after eviction (%d vs %d)", cycle, q, len(got), len(want))
			}
		}
		clean := Open(root)
		if err := clean.Sync(); err != nil {
			t.Fatal(err)
		}
		if got, want := len(s.Select(Query{})), len(clean.Select(Query{})); got != want {
			t.Fatalf("cycle %d: incremental store has %d entries, clean rebuild %d", cycle, got, want)
		}
	}
}

// TestInterleavedAppendEvictSelect is the -race index-consistency test:
// concurrent writers append through the store, a truncator repeatedly
// rewrites its own file (forcing evictions), and readers run the full
// query surface throughout. Afterwards the store must converge to
// filesystem truth and the index must still agree with the scan path.
func TestInterleavedAppendEvictSelect(t *testing.T) {
	root := t.TempDir()
	s := Open(root)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Select(Query{System: "archer2", FOM: "l0"})
				s.Select(Query{Limit: 5})
				s.Aggregate(Query{FOM: "l0", GroupBy: []string{"system"}})
				s.Regressions(Query{FOM: "l0"}, 0.1, 3)
				s.Systems()
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			sys := []string{"archer2", "csd3", "cosma8"}[w]
			for i := 0; i < 20; i++ {
				e := entry(sys, "hpgmg-fv", w*1000+i, t0.Add(time.Duration(i)*time.Minute), map[string]float64{"l0": 90 + float64(i)})
				if err := s.Append(sys, "hpgmg-fv", e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// The truncator owns its file exclusively: rewrite-shorter then
	// re-sync, over and over, exercising evict + re-ingest against the
	// readers and the other writers.
	writers.Add(1)
	go func() {
		defer writers.Done()
		path := filepath.Join(root, "volatile", "bench.log")
		for i := 0; i < 15; i++ {
			n := 1 + i%4
			var lines []byte
			for j := 0; j < n; j++ {
				e := entry("volatile", "bench", i*10+j, t0.Add(time.Duration(j)*time.Minute), map[string]float64{"l0": float64(j)})
				lines = append(lines, (e.Line() + "\n")...)
			}
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Error(err)
				return
			}
			if i > 0 {
				// Shrink to zero first so the store sees a rewrite, not
				// an ambiguous same-length append.
				if err := os.Truncate(path, 0); err != nil {
					t.Error(err)
					return
				}
				if err := s.SyncFile(path); err != nil {
					t.Error(err)
					return
				}
			}
			if err := os.WriteFile(path, lines, 0o644); err != nil {
				t.Error(err)
				return
			}
			if err := s.SyncFile(path); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	clean := Open(root)
	if err := clean.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != clean.Len() {
		t.Fatalf("store diverged from filesystem truth: %d vs %d entries", s.Len(), clean.Len())
	}
	for _, q := range []Query{{}, {System: "archer2"}, {System: "volatile"}, {FOM: "l0", Limit: 7}} {
		if got, want := s.Select(q), s.selectScan(q); !sameEntries(got, want) {
			t.Fatalf("query %+v: index diverged from scan after interleaving", q)
		}
	}
}

// TestGenerationTracksMutations pins the staleness contract the service
// cache relies on: reads leave the generation alone, adds and evictions
// move it.
func TestGenerationTracksMutations(t *testing.T) {
	root := t.TempDir()
	s := Open(root)
	g0 := s.Generation()
	s.Select(Query{})
	if _, err := s.Aggregate(Query{Agg: "count"}); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != g0 {
		t.Fatal("reads moved the generation")
	}
	e := entry("archer2", "hpgmg-fv", 1, t0, map[string]float64{"l0": 95})
	if err := s.Append("archer2", "hpgmg-fv", e); err != nil {
		t.Fatal(err)
	}
	g1 := s.Generation()
	if g1 == g0 {
		t.Fatal("append did not move the generation")
	}
	if err := s.Sync(); err != nil { // no-op re-sync
		t.Fatal(err)
	}
	if s.Generation() != g1 {
		t.Fatal("no-op sync moved the generation")
	}
	path := filepath.Join(root, "archer2", "hpgmg-fv.log")
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncFile(path); err != nil {
		t.Fatal(err)
	}
	if s.Generation() == g1 {
		t.Fatal("eviction did not move the generation")
	}
}

// TestQueryEncodeRoundTrips pins Encode as a canonical form on a few
// handwritten queries (the fuzz target covers the parser-accepted
// space).
func TestQueryEncodeRoundTrips(t *testing.T) {
	qs := []Query{
		{},
		{System: "archer2", Benchmark: "hpgmg-fv", Limit: 10},
		{FOM: "l0", Agg: "mean", GroupBy: []string{"system", "benchmark"}},
		{Extra: map[string]string{"num_tasks": "8", "gpu": "v100"}, Result: "pass"},
		{Since: time.Date(2023, 7, 7, 10, 0, 0, 500_000_000, time.UTC)},
	}
	for _, q := range qs {
		enc := q.Encode()
		back, err := ParseQuery(enc)
		if err != nil {
			t.Fatalf("Encode produced unparseable %q: %v", enc, err)
		}
		if back.Encode() != enc {
			t.Fatalf("round trip not canonical: %q -> %q", enc, back.Encode())
		}
		if !back.Since.Equal(q.Since) {
			t.Fatalf("since lost in round trip: %v -> %v", q.Since, back.Since)
		}
	}
}

// TestShardForIsFNV1a: the inlined hash must place every system where
// hash/fnv's 32-bit FNV-1a did.
func TestShardForIsFNV1a(t *testing.T) {
	s := Open("unused")
	for _, system := range []string{"", "a", "archer2", "csd3", "cosma8", "isambard-macs", "paderborn-milan", "local", "sys\x00tem", "ünïcode"} {
		h := fnv.New32a()
		h.Write([]byte(system))
		if got, want := s.shardFor(system), &s.shards[h.Sum32()%shardCount]; got != want {
			t.Errorf("shardFor(%q) moved", system)
		}
	}
}
