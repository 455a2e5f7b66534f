package perfstore

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/perflog"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// Count gates: what a query reads and allocates, as numbers a noisy
// neighbour cannot move. Wall time is benchload's to claim; these trip
// when a change makes a window query pay for history outside its window.

// rowsRead runs fn and returns how many rows its query legs read.
func rowsRead(fn func()) int {
	before := metricRowsVisited.Value()
	fn()
	return int(metricRowsVisited.Value() - before)
}

// TestRegressionWindowCost: a regression check over the newest 400
// entries reads those 400 rows and no others, on either tier, and what it
// allocates neither grows with the history outside the window nor reaches
// one allocation per matched entry. A bounded baseline on one pinned pair
// (the post-run check of a scheduled run) reads a number of rows set by
// the window, not by the pair's history.
func TestRegressionWindowCost(t *testing.T) {
	const window, small, big = 400, 4000, 36_400 // big holds ten times the history outside the window
	stores := map[int]map[string]*Store{small: buildWindowStores(t, small), big: buildWindowStores(t, big)}
	for _, tier := range []string{"head", "sealed"} {
		var allocs, bounded [2]int
		for i, n := range []int{small, big} {
			s := stores[n][tier]
			q := Query{FOM: "l0", Since: t0.Add(time.Duration(n-window) * time.Second)}
			var got []Report
			read := rowsRead(func() { got, _ = s.Regressions(q, 0.1, 0) })
			if want := s.regressionsRef(q, 0.1, 0); len(got) != 15 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d: window regressions diverged from the reference", tier, n)
			}
			if legs := shardCount + s.Stats().SealedSegments; read > window+legs {
				t.Errorf("%s/%d: read %d rows for a %d-row window over %d legs", tier, n, read, window, legs)
			}
			allocs[i] = int(testing.AllocsPerRun(10, func() { s.Regressions(q, 0.1, 0) }))

			pair := Query{System: "archer2", Benchmark: "hpgmg-fv", FOM: "l0"}
			bounded[i] = rowsRead(func() { got, _ = s.Regressions(pair, 0.1, 5) })
			if want := s.regressionsRef(pair, 0.1, 5); len(got) != 1 || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d: bounded regressions diverged from the reference", tier, n)
			}
		}
		t.Logf("%s: %d allocations on the small store, %d on the big one; the bounded baseline read %d and %d rows", tier, allocs[0], allocs[1], bounded[0], bounded[1])
		if allocs[0] != allocs[1] || allocs[1] >= window {
			t.Errorf("%s: %d allocations on the small store, %d on the big one; want equal and under %d", tier, allocs[0], allocs[1], window)
		}
		// One pair in fifteen: six usable points lie within ~90 rows of the
		// top of each leg that holds the pair.
		if bounded[0] != bounded[1] || bounded[1] > 4*100 {
			t.Errorf("%s: bounded baseline read %d rows on the small store, %d on the big one; want equal and at most 400", tier, bounded[0], bounded[1])
		}
	}
}

// TestTextBootCost: a text boot of a tree laid out like the end-to-end
// benchmark's corpus — each system's three files interleaved in time —
// makes a flat number of allocations per entry: at most six, and the
// same to within 0.2 at 15k and 60k entries. Per-line strings, field
// slices or posting-key strings would each break the bound.
func TestTextBootCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var perEntry [2]float64
	for i, n := range []int{15_000, 60_000} {
		root := genTree(t, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := Open(root)
		err := s.Sync()
		runtime.ReadMemStats(&after)
		if err != nil || s.Len() != n {
			t.Fatalf("%d entries: boot recovered %d, err %v", n, s.Len(), err)
		}
		perEntry[i] = float64(after.Mallocs-before.Mallocs) / float64(n)
		t.Logf("%d entries: %.2f allocations per entry", n, perEntry[i])
		if perEntry[i] > 6 {
			t.Errorf("%d entries: %.2f allocations per entry, want at most 6", n, perEntry[i])
		}
	}
	if d := math.Abs(perEntry[0] - perEntry[1]); d > 0.2 {
		t.Errorf("allocations per entry moved by %.2f between 15k and 60k entries, want at most 0.2", d)
	}
}

// TestHeadRowCost: a text boot of a tree laid out like the end-to-end
// benchmark's corpus keeps each row in columns. What the booted store
// holds on the heap after a GC is at most 200 bytes per row — an entry
// with its two maps cost over a kilobyte — and the same to within 10 % at
// 15k and 60k rows: a row that kept its perflog.Scan chunk reachable, or
// anything else that grows faster than the rows, would break it.
func TestHeadRowCost(t *testing.T) {
	var perRow [2]float64
	for i, n := range []int{15_000, 60_000} {
		root := genTree(t, n)
		base := liveHeap()
		s := Open(root)
		if err := s.Sync(); err != nil || s.Len() != n {
			t.Fatalf("%d entries: boot recovered %d, err %v", n, s.Len(), err)
		}
		perRow[i] = (liveHeap() - base) / float64(n)
		t.Logf("%d rows: %.1f B live and %.1f B resident (Stats.HeadResidentBytes) per row",
			n, perRow[i], float64(s.Stats().HeadResidentBytes)/float64(n))
		runtime.KeepAlive(s)
	}
	if perRow[1] > 200 {
		t.Errorf("60000 rows: %.1f B live per row, want at most 200", perRow[1])
	}
	if d := math.Abs(perRow[0]-perRow[1]) / perRow[1]; d > 0.10 {
		t.Errorf("live bytes per row moved by %.0f %% between 15k and 60k rows (%.1f → %.1f), want at most 10 %%", 100*d, perRow[0], perRow[1])
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// TestCommitIngestAllocs: a 1-entry group commit into a warm shard makes
// at most five allocations; indexing it under keys the shard already
// holds allocates nothing.
func TestCommitIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := Open(t.TempDir())
	rng := rand.New(rand.NewSource(5))
	warm := make([]*perflog.Entry, 1000)
	for i := range warm {
		warm[i] = windowEntry(rng, i)
	}
	c := perflog.Commit{Path: "commit.log", Entries: warm, Bytes: 1000}
	if !s.AddBatch(c) {
		t.Fatal("warm-up commit declined")
	}
	c.Entries, c.Offset, c.Bytes = warm[len(warm)-1:], c.Bytes, 100
	allocs := testing.AllocsPerRun(500, func() {
		if !s.AddBatch(c) {
			t.Fatal("commit declined")
		}
		c.Offset += c.Bytes
	})
	t.Logf("%.1f allocations per 1-entry commit", allocs)
	if allocs > 5 {
		t.Errorf("a 1-entry commit made %.1f allocations, want at most 5", allocs)
	}
}

// TestSealedRowCost: a segment load keeps the rows in columns. One
// decode of a block laid out like the end-to-end benchmark's corpus
// (windowEntry) allocates at most 160 bytes per row — an entry with its
// two maps cost over a kilobyte — and a number of allocations that does
// not grow with the rows: ten times the rows cost at most a handful more.
func TestSealedRowCost(t *testing.T) {
	const small, big = 2_000, 20_000
	var mallocs [2]uint64
	for i, n := range []int{small, big} {
		hdr, data := encodeSegment(windowArena(n))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := decodeSegment(hdr, data)
		runtime.ReadMemStats(&after)
		if err != nil || d.rows() != n {
			t.Fatalf("%d rows: decoded %d, err %v", n, d.rows(), err)
		}
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		mallocs[i] = after.Mallocs - before.Mallocs
		t.Logf("%d rows: %.1f B allocated and %.1f B resident per row, %d allocations", n, perRow, float64(d.size())/float64(n), mallocs[i])
		if n == big && perRow > 160 {
			t.Errorf("%d rows: a decode allocated %.1f B per row, want at most 160", n, perRow)
		}
	}
	if mallocs[1] > mallocs[0]+8 {
		t.Errorf("a decode made %d allocations at %d rows and %d at %d rows; want at most 8 more", mallocs[1], big, mallocs[0], small)
	}
}

// windowArena is n windowEntry rows as a sealed arena.
func windowArena(n int) []stored {
	rng := rand.New(rand.NewSource(3))
	ents := make([]stored, n)
	for i := range ents {
		e := windowEntry(rng, i)
		ents[i] = stored{entry: e, file: "archer2/hpgmg-fv.log", t: timeNanos(e.Time), seq: uint64(i + 1)}
	}
	return ents
}
