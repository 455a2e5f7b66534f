package service

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fom"
	"repro/internal/perflog"
	"repro/internal/perfstore"
	"repro/internal/telemetry"
)

func TestQueryCacheGenerationAndLRU(t *testing.T) {
	c := newQueryCache(2)
	c.put("a", 1, "va")
	if v, ok := c.get("a", 1); !ok || v != "va" {
		t.Fatalf("get(a) = %v, %v", v, ok)
	}
	// A generation bump invalidates without any explicit flush.
	if _, ok := c.get("a", 2); ok {
		t.Fatal("stale generation served")
	}
	if c.len() != 0 {
		t.Fatalf("stale entry retained: len = %d", c.len())
	}
	// LRU bound: touching "a" keeps it; "b" is the victim.
	c.put("a", 3, "va")
	c.put("b", 3, "vb")
	if _, ok := c.get("a", 3); !ok {
		t.Fatal("a missing")
	}
	c.put("c", 3, "vc")
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, ok := c.get("b", 3); ok {
		t.Fatal("LRU victim b survived")
	}
	if _, ok := c.get("a", 3); !ok {
		t.Fatal("recently used a evicted")
	}
	// put on an existing key refreshes value and stamp in place.
	c.put("a", 4, "va2")
	if v, ok := c.get("a", 4); !ok || v != "va2" {
		t.Fatalf("refresh lost: %v, %v", v, ok)
	}
}

// cacheEntryFor builds a minimal passing perflog entry with one l0 FOM,
// timestamped by job so orderings are deterministic.
func cacheEntryFor(system, benchmark string, job int, val float64) *perflog.Entry {
	return &perflog.Entry{
		Time:      time.Date(2023, 7, 7, 10, 0, 0, 0, time.UTC).Add(time.Duration(job) * time.Minute),
		Benchmark: benchmark,
		System:    system,
		Partition: "compute",
		Environ:   "gcc",
		Spec:      benchmark + "%gcc",
		JobID:     job,
		Result:    "pass",
		FOMs:      map[string]fom.Value{"l0": {Name: "l0", Value: val, Unit: "MDOF/s"}},
		Extra:     map[string]string{"num_tasks": "8"},
	}
}

// TestAggregateCacheEndToEnd drives /v1/query?agg= through the handler
// twice, checks the second hit is served from cache (hit counter
// moves), then appends an entry and checks the cache does not serve the
// stale aggregate.
func TestAggregateCacheEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{PerflogRoot: dir + "/perflogs", InstallTree: dir + "/install", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if err := srv.writer.Append("archer2", "hpgmg-fv", cacheEntryFor("archer2", "hpgmg-fv", 1, 95.0)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	count := func() int {
		var body struct {
			Aggregates []perfstore.Aggregate `json:"aggregates"`
		}
		if code := getJSON(t, ts.URL+"/v1/query?fom=l0&agg=mean&group_by=system", &body); code != 200 {
			t.Fatalf("query status = %d", code)
		}
		if len(body.Aggregates) != 1 {
			t.Fatalf("aggregates = %+v", body.Aggregates)
		}
		return body.Aggregates[0].Count
	}

	hits := func() float64 {
		v, _ := telemetry.DefaultRegistry.Value("benchd_query_cache_hits_total", "aggregate")
		return v
	}

	h0 := hits()
	if got := count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	if got := count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	if hits() != h0+1 {
		t.Fatalf("second identical query missed the cache (hits %v -> %v)", h0, hits())
	}
	// A store write must invalidate: the next query sees the new entry.
	if err := srv.writer.Append("archer2", "hpgmg-fv", cacheEntryFor("archer2", "hpgmg-fv", 2, 94.0)); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 2 {
		t.Fatalf("stale aggregate served after write: count = %d, want 2", got)
	}
}
