package perfstore

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/fom"
	"repro/internal/perflog"
)

func newBenchRNG() *rand.Rand { return rand.New(rand.NewSource(2)) }

// benchStore is shared across the BenchmarkStore* suite: building a
// 100k-entry store takes ~1s, so it is paid once per `go test -bench`
// invocation, not once per sub-benchmark.
var benchStore *Store

func benchStoreN(b *testing.B, n int) *Store {
	b.Helper()
	if benchStore == nil || benchStore.Len() != n {
		benchStore = memStore(1, n)
	}
	return benchStore
}

const benchN = 100_000

// selectiveQuery matches one (system, benchmark, extra) slice of the
// store — the dashboard-style lookup the posting-list planner exists
// for. On the 5×3 value pools of randEntry it keeps roughly 1/30 of
// the entries.
func selectiveQuery() Query {
	return Query{
		System:    "archer2",
		Benchmark: "hpgmg-fv",
		Extra:     map[string]string{"num_tasks": "8"},
	}
}

func BenchmarkStoreSelect(b *testing.B) {
	s := benchStoreN(b, benchN)
	q := selectiveQuery()
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(s.Select(q)) == 0 {
				b.Fatal("no matches")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(s.selectScan(q)) == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

func BenchmarkStoreSelectLimit(b *testing.B) {
	s := benchStoreN(b, benchN)
	q := selectiveQuery()
	q.Limit = 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(s.Select(q)) != 20 {
			b.Fatal("short result")
		}
	}
}

func BenchmarkStoreSelectSince(b *testing.B) {
	s := benchStoreN(b, benchN)
	// A narrow trailing time window: the byTime view binary-searches to
	// the start instead of scanning 100k entries.
	q := Query{Since: t0.Add(490 * time.Minute)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(s.Select(q)) == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkStoreAggregate(b *testing.B) {
	s := benchStoreN(b, benchN)
	q := selectiveQuery()
	q.FOM = "l0"
	q.Agg = "mean"
	q.GroupBy = []string{"system", "benchmark"}
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			aggs, err := s.Aggregate(q)
			if err != nil || len(aggs) == 0 {
				b.Fatalf("aggregate: %v (%d groups)", err, len(aggs))
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			aggs := aggregateEntries(s.selectScan(q), q.GroupBy, q.FOM, s.rsdGate())
			if len(aggs) == 0 {
				b.Fatal("no groups")
			}
		}
	})
}

// BenchmarkStoreAggregateAll group-bys the whole store (no selective
// predicate): the win here is the parallel per-shard partials, not the
// index.
func BenchmarkStoreAggregateAll(b *testing.B) {
	s := benchStoreN(b, benchN)
	q := Query{FOM: "l0", Agg: "mean", GroupBy: []string{"system", "benchmark"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		aggs, err := s.Aggregate(q)
		if err != nil || len(aggs) == 0 {
			b.Fatalf("aggregate: %v", err)
		}
	}
}

func BenchmarkStoreRegressions(b *testing.B) {
	s := benchStoreN(b, benchN)
	q := Query{System: "archer2", FOM: "l0", GroupBy: []string{"system", "benchmark"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reports, err := s.Regressions(q, 0.1, 0)
		if err != nil || len(reports) == 0 {
			b.Fatalf("regressions: %v", err)
		}
	}
}

// BenchmarkStoreGroupKey measures the per-entry keying cost that
// Aggregate and Regressions pay in their inner loops.
func BenchmarkStoreGroupKey(b *testing.B) {
	e := randEntry(newBenchRNG(), 0)
	k := newGroupKeyer([]string{"system", "benchmark", "extra.num_tasks"})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(k.raw(e)) == 0 {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkStoreAppend is the per-entry ingest cost with index
// maintenance included (no disk: add() only).
func BenchmarkStoreAppend(b *testing.B) {
	rng := newBenchRNG()
	pool := make([]*perflog.Entry, 4096)
	for i := range pool {
		pool[i] = randEntry(rng, i)
	}
	s := Open("unused")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.add(pool[i%len(pool)], "mem.log")
	}
}

// The window benchmarks run the two dashboard reads of the end-to-end
// benchmark (bench/gen) — a regression check and a mean per system over
// the newest part of the history — on a store of its shape: 200k entries
// one second apart going round five systems × three benchmarks, every one
// carrying l0, none carrying repetition statistics; sealed, it is cut
// into four segments.
const windowN = 200_000

func windowEntry(rng *rand.Rand, i int) *perflog.Entry {
	systems := []string{"archer2", "cosma8", "csd3", "noctua2", "isambard-macs"}
	benchmarks := []string{"babelstream-omp", "hpcg-original", "hpgmg-fv"}
	e := &perflog.Entry{
		Time:      t0.Add(time.Duration(i) * time.Second),
		Benchmark: benchmarks[i%3],
		System:    systems[i/3%5],
		Partition: "compute",
		Environ:   "gcc",
		JobID:     i,
		Result:    "pass",
		FOMs:      map[string]fom.Value{"l0": {Name: "l0", Value: 50 + rng.Float64()*100, Unit: "MDOF/s"}},
		Extra:     map[string]string{"num_tasks": strconv.Itoa(8 << rng.Intn(3))},
	}
	e.Spec = e.Benchmark + "%gcc"
	if rng.Intn(2) == 0 {
		e.FOMs["l1"] = fom.Value{Name: "l1", Value: 40 + rng.Float64()*80, Unit: "MDOF/s"}
	}
	return e
}

// buildWindowStores fills a head-only store and a store sealed into four
// segments with the same n entries.
func buildWindowStores(tb testing.TB, n int) map[string]*Store {
	tb.Helper()
	head := Open("unused")
	sealed, err := OpenTiered(tb.TempDir(), tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		e := windowEntry(rng, i)
		head.add(e, "mem.log")
		sealed.add(e, "mem.log")
		if (i+1)%(n/4) == 0 {
			if _, err := sealed.Seal(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return map[string]*Store{"head": head, "sealed": sealed}
}

// windowStores is built once per `go test -bench` invocation.
var windowStores map[string]*Store

func windowStore(b *testing.B, tier string) *Store {
	if windowStores == nil {
		windowStores = buildWindowStores(b, windowN)
	}
	return windowStores[tier]
}

func windowSince(quantile float64) time.Time {
	return t0.Add(time.Duration(quantile*windowN) * time.Second)
}

// BenchmarkStoreRegressionsWindow is /v1/regressions?fom=l0&since=<newest
// tenth>: 20k of the 200k entries are inside the window.
func BenchmarkStoreRegressionsWindow(b *testing.B) {
	for _, tier := range []string{"head", "sealed"} {
		b.Run(tier, func(b *testing.B) {
			s := windowStore(b, tier)
			q := Query{FOM: "l0", Since: windowSince(0.9)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reports, err := s.Regressions(q, 0.1, 0)
				if err != nil || len(reports) != 15 {
					b.Fatalf("%d reports, err %v", len(reports), err)
				}
			}
		})
	}
}

// BenchmarkStoreAggregateWindow is /v1/query?agg=mean&fom=l0&group_by=
// system&since=<newer half | newest tenth>.
func BenchmarkStoreAggregateWindow(b *testing.B) {
	for _, tier := range []string{"head", "sealed"} {
		for _, quantile := range []float64{0, 0.5, 0.9} {
			b.Run(fmt.Sprintf("%s/q%.0f", tier, quantile*100), func(b *testing.B) {
				s := windowStore(b, tier)
				q := Query{FOM: "l0", Agg: "mean", GroupBy: []string{"system"}, Since: windowSince(quantile)}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rows, err := s.Aggregate(q)
					if err != nil || len(rows) != 5 {
						b.Fatalf("%d rows, err %v", len(rows), err)
					}
				}
			})
		}
	}
}

// BenchmarkStoreSelectWindow is /v1/query?limit=100: the newest hundred
// entries, the listing a results page opens with.
func BenchmarkStoreSelectWindow(b *testing.B) {
	for _, tier := range []string{"head", "sealed"} {
		b.Run(tier, func(b *testing.B) {
			s := windowStore(b, tier)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := s.Select(Query{Limit: 100}); len(got) != 100 {
					b.Fatalf("%d entries", len(got))
				}
			}
		})
	}
}
