package perfstore

import (
	"reflect"
	"testing"
	"time"
)

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
