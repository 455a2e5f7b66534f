package perfstore

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fom"
	"repro/internal/perflog"
)

// appendAndSync appends through the one-shot perflog path and ingests
// the file, so store and tree move in lockstep.
func appendAndSync(s *Store, system, benchmark string, entries ...*perflog.Entry) error {
	if err := perflog.Append(s.root, system, benchmark, entries...); err != nil {
		return err
	}
	return s.SyncFile(filepath.Join(s.root, system, benchmark+".log"))
}

func entry(system, benchmark string, job int, t0 time.Time, foms map[string]float64) *perflog.Entry {
	e := &perflog.Entry{
		Time:      t0,
		Benchmark: benchmark,
		System:    system,
		Partition: "compute",
		Environ:   "gcc",
		Spec:      benchmark + "%gcc",
		JobID:     job,
		Result:    "pass",
		FOMs:      map[string]fom.Value{},
		Extra:     map[string]string{"num_tasks": "8"},
	}
	for k, v := range foms {
		e.FOMs[k] = fom.Value{Name: k, Value: v, Unit: "MDOF/s"}
	}
	return e
}

var t0 = time.Date(2023, 7, 7, 10, 0, 0, 0, time.UTC)

// seedTree writes a two-system tree directly with perflog.Append, as
// isolated benchctl runs would.
func seedTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	for i, v := range []float64{95.0, 94.5, 60.0} {
		e := entry("archer2", "hpgmg-fv", i+1, t0.Add(time.Duration(i)*time.Hour), map[string]float64{"l0": v})
		if err := perflog.Append(root, "archer2", "hpgmg-fv", e); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []float64{126.1, 125.8} {
		e := entry("csd3", "hpgmg-fv", i+1, t0.Add(time.Duration(i)*time.Hour), map[string]float64{"l0": v})
		if err := perflog.Append(root, "csd3", "hpgmg-fv", e); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestSyncIngestsTree(t *testing.T) {
	s := Open(seedTree(t))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 {
		t.Fatalf("entries = %d, want 5", s.Len())
	}
	if st := s.Stats(); st.Systems != 2 || len(s.Select(Query{System: "archer2"})) == 0 || len(s.Select(Query{System: "csd3"})) == 0 {
		t.Errorf("systems = %d", st.Systems)
	}
}

func TestReSyncUnchangedTreeParsesZeroBytes(t *testing.T) {
	// The incremental-ingest acceptance check: a second Sync over an
	// unchanged tree must not parse a single byte or add an entry.
	s := Open(seedTree(t))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.BytesParsed == 0 || before.EntriesAdded != 5 {
		t.Fatalf("first sync stats: %+v", before)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if delta := after.BytesParsed - before.BytesParsed; delta != 0 {
		t.Errorf("re-sync parsed %d bytes, want 0", delta)
	}
	if after.EntriesAdded != before.EntriesAdded {
		t.Errorf("re-sync added %d entries", after.EntriesAdded-before.EntriesAdded)
	}
	if s.Len() != 5 {
		t.Errorf("re-sync duplicated entries: %d", s.Len())
	}
}

func TestSyncPicksUpOnlyAppendedBytes(t *testing.T) {
	root := seedTree(t)
	s := Open(root)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	e := entry("archer2", "hpgmg-fv", 9, t0.Add(9*time.Hour), map[string]float64{"l0": 90})
	if err := perflog.Append(root, "archer2", "hpgmg-fv", e); err != nil {
		t.Fatal(err)
	}
	newBytes := int64(len(e.Line()) + 1)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if delta := after.BytesParsed - before.BytesParsed; delta != newBytes {
		t.Errorf("parsed %d bytes, want just the appended %d", delta, newBytes)
	}
	if s.Len() != 6 {
		t.Errorf("entries = %d, want 6", s.Len())
	}
}

func TestSyncLeavesPartialTrailingLine(t *testing.T) {
	root := t.TempDir()
	e := entry("archer2", "hpgmg-fv", 1, t0, map[string]float64{"l0": 95})
	if err := perflog.Append(root, "archer2", "hpgmg-fv", e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "archer2", "hpgmg-fv.log")
	// A writer mid-append: half a line, no newline yet.
	half := entry("archer2", "hpgmg-fv", 2, t0.Add(time.Hour), map[string]float64{"l0": 94}).Line()
	cut := len(half) / 2
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(half[:cut]); err != nil {
		t.Fatal(err)
	}
	s := Open(root)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("partial line ingested: %d entries", s.Len())
	}
	// The writer finishes the line; the next sync picks it up whole.
	if _, err := f.WriteString(half[cut:] + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("completed line not ingested: %d entries", s.Len())
	}
}

func TestSyncRecoversFromTruncation(t *testing.T) {
	root := seedTree(t)
	s := Open(root)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// The archer2 log is rewritten shorter (a rotated or repaired file).
	path := filepath.Join(root, "archer2", "hpgmg-fv.log")
	keep := entry("archer2", "hpgmg-fv", 42, t0, map[string]float64{"l0": 97}).Line() + "\n"
	if err := os.WriteFile(path, []byte(keep), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	got := s.Select(Query{System: "archer2"})
	if len(got) != 1 || got[0].JobID != 42 {
		t.Fatalf("after truncation: %d archer2 entries, %+v", len(got), got)
	}
	// csd3 is untouched.
	if n := len(s.Select(Query{System: "csd3"})); n != 2 {
		t.Errorf("csd3 entries = %d", n)
	}
}

func TestAppendKeepsStoreAndTreeInLockstep(t *testing.T) {
	root := t.TempDir()
	s := Open(root)
	e := entry("archer2", "hpgmg-fv", 1, t0, map[string]float64{"l0": 95})
	if err := appendAndSync(s, "archer2", "hpgmg-fv", e); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("entries = %d", s.Len())
	}
	// The file is on disk and a fresh Sync adds nothing new.
	before := s.Stats().BytesParsed
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().BytesParsed != before || s.Len() != 1 {
		t.Error("Append left the checkpoint behind the file")
	}
	entries, err := perflog.ReadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("tree entries = %d", len(entries))
	}
}

func TestSelectFilters(t *testing.T) {
	s := Open(seedTree(t))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Select(Query{System: "archer2"})); n != 3 {
		t.Errorf("archer2 = %d", n)
	}
	if n := len(s.Select(Query{Benchmark: "hpgmg-fv"})); n != 5 {
		t.Errorf("benchmark = %d", n)
	}
	if n := len(s.Select(Query{FOM: "nope"})); n != 0 {
		t.Errorf("missing FOM matched %d", n)
	}
	if n := len(s.Select(Query{Extra: map[string]string{"num_tasks": "8"}})); n != 5 {
		t.Errorf("extra = %d", n)
	}
	if n := len(s.Select(Query{Extra: map[string]string{"num_tasks": "99"}})); n != 0 {
		t.Errorf("wrong extra matched %d", n)
	}
	if n := len(s.Select(Query{Since: t0.Add(90 * time.Minute)})); n != 1 {
		t.Errorf("since = %d", n)
	}
	got := s.Select(Query{System: "archer2", Limit: 2})
	if len(got) != 2 || got[1].FOMs["l0"].Value != 60.0 {
		t.Errorf("limit should keep the most recent entries: %+v", got)
	}
	// Results are time-ascending across systems.
	all := s.Select(Query{})
	for i := 1; i < len(all); i++ {
		if all[i].Time.Before(all[i-1].Time) {
			t.Fatal("Select not time-ordered")
		}
	}
}

func TestAggregate(t *testing.T) {
	s := Open(seedTree(t))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	aggs, err := s.Aggregate(Query{FOM: "l0", GroupBy: []string{"system"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 2 {
		t.Fatalf("groups = %+v", aggs)
	}
	a := aggs[0] // sorted: archer2 first
	if a.Group != "archer2" || a.Count != 3 || a.Min != 60 || a.Max != 95 || a.Last != 60 {
		t.Errorf("archer2 agg = %+v", a)
	}
	wantMean := (95.0 + 94.5 + 60.0) / 3
	if diff := a.Mean - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("mean = %g, want %g", a.Mean, wantMean)
	}
	if a.Unit != "MDOF/s" {
		t.Errorf("unit = %q", a.Unit)
	}
	if _, err := s.Aggregate(Query{}); err == nil {
		t.Error("aggregate without FOM accepted")
	}
}

func TestRegressions(t *testing.T) {
	s := Open(seedTree(t))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	reports, err := s.Regressions(Query{FOM: "l0", GroupBy: []string{"system"}}, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %+v", reports)
	}
	if !reports[0].Flagged || reports[0].Group != "archer2" {
		t.Errorf("archer2 drop not flagged: %+v", reports[0])
	}
	if reports[1].Flagged {
		t.Errorf("csd3 wrongly flagged: %+v", reports[1])
	}
	if _, err := s.Regressions(Query{}, 0.10, 0); err == nil {
		t.Error("regressions without FOM accepted")
	}
}

func TestRegressionsSlidingWindow(t *testing.T) {
	// A series that decayed long ago and is now stable: against the full
	// history the latest run looks slow, but a sliding baseline of the
	// recent window sees a steady state.
	root := t.TempDir()
	s := Open(root)
	vals := []float64{200, 200, 200, 100, 100, 100, 100}
	for i, v := range vals {
		e := entry("archer2", "bench", i+1, t0.Add(time.Duration(i)*time.Hour), map[string]float64{"x": v})
		if err := appendAndSync(s, "archer2", "bench", e); err != nil {
			t.Fatal(err)
		}
	}
	full, err := s.Regressions(Query{FOM: "x"}, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !full[0].Flagged {
		t.Errorf("full-history baseline should flag: %+v", full[0])
	}
	recent, err := s.Regressions(Query{FOM: "x"}, 0.10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if recent[0].Flagged || recent[0].Samples != 3 || recent[0].Baseline != 100 {
		t.Errorf("window-3 baseline should be stable: %+v", recent[0])
	}
}

func TestEvalSeriesShortAndNaN(t *testing.T) {
	if _, ok := evalSeries([]float64{1}, 0.1, 0); ok {
		t.Error("single value judged")
	}
	if r, ok := evalSeries([]float64{100, 100, 90}, 0.05, 0); !ok || !r.Flagged {
		t.Errorf("drop not flagged: %+v", r)
	}
	// NaN values (failed runs in a frame) are ignored, not propagated.
	nan := math.NaN()
	if r, ok := evalSeries([]float64{100, nan, 100, nan, 90}, 0.05, 0); !ok || !r.Flagged || r.Baseline != 100 {
		t.Errorf("NaN handling: %+v", r)
	}
	if _, ok := evalSeries([]float64{nan, nan, 100}, 0.05, 0); ok {
		t.Error("series of one real value judged")
	}
}

func TestConcurrentIngestAndQuery(t *testing.T) {
	// The -race acceptance test: writers Append through the store while
	// readers Select, Aggregate, and Regressions concurrently.
	root := t.TempDir()
	s := Open(root)
	const writers = 4
	const perWriter = 25
	systems := []string{"archer2", "csd3", "cosma8", "isambard-macs"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Select(Query{System: "archer2", FOM: "l0"})
				s.Aggregate(Query{FOM: "l0"})
				s.Regressions(Query{FOM: "l0"}, 0.1, 5)
				s.Stats()
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			sys := systems[w%len(systems)]
			for i := 0; i < perWriter; i++ {
				e := entry(sys, "hpgmg-fv", w*1000+i, t0.Add(time.Duration(i)*time.Minute), map[string]float64{"l0": 90 + float64(i)})
				if err := appendAndSync(s, sys, "hpgmg-fv", e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if s.Len() != writers*perWriter {
		t.Errorf("entries = %d, want %d", s.Len(), writers*perWriter)
	}
	// Everything the writers appended is also parseable on disk.
	entries, err := perflog.ReadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != writers*perWriter {
		t.Errorf("tree entries = %d", len(entries))
	}
}

func TestSyncMissingRootIsNoop(t *testing.T) {
	s := Open(filepath.Join(t.TempDir(), "never-created"))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Error("phantom entries")
	}
}

// A fault-injected short read mid-line must behave exactly like a
// writer caught mid-append: the checkpoint stays before the torn tail,
// nothing partial is indexed, and the next (clean) sync completes the
// picture — convergence to filesystem truth through the normal
// incremental path.
func TestSyncRecoversFromFaultInjectedShortReads(t *testing.T) {
	root := seedTree(t)
	// Cut the very first read of archer2's file after 40 bytes (well
	// inside the first line).
	if err := faultinject.Load(1, []faultinject.Rule{
		{Point: "perfstore.read", Kind: faultinject.KindShort, Bytes: 40, Times: 1},
	}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	s := Open(root)
	path := filepath.Join(root, "archer2", "hpgmg-fv.log")
	if err := s.SyncFile(path); err != nil {
		t.Fatalf("short read surfaced as an error: %v", err)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("torn first line indexed %d entries", got)
	}
	st := s.Stats()
	if st.BytesParsed != 0 {
		t.Fatalf("checkpoint advanced past a torn line: %d bytes", st.BytesParsed)
	}
	// The schedule is exhausted; a re-sync reads the whole file.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 5 {
		t.Fatalf("entries after recovery sync = %d, want 5", got)
	}
	// And the recovered store matches a store that never saw faults.
	clean := Open(root)
	if err := clean.Sync(); err != nil {
		t.Fatal(err)
	}
	if clean.Len() != s.Len() {
		t.Fatalf("faulted store (%d) diverged from clean store (%d)", s.Len(), clean.Len())
	}
}

// A short read that lands exactly on a line boundary just ingests a
// prefix; truncating the file below the checkpoint afterwards must
// still evict and re-read — the two recovery paths compose.
func TestSyncShortReadThenTruncation(t *testing.T) {
	root := seedTree(t)
	path := filepath.Join(root, "archer2", "hpgmg-fv.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	var firstLineLen int64
	for i, b := range raw {
		if b == '\n' {
			lines++
			if lines == 1 {
				firstLineLen = int64(i + 1)
			}
		}
	}
	if err := faultinject.Load(1, []faultinject.Rule{
		{Point: "perfstore.read", Kind: faultinject.KindShort, Bytes: firstLineLen, Times: 1},
	}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	s := Open(root)
	if err := s.SyncFile(path); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("boundary short read ingested %d entries, want 1", got)
	}
	// Truncate the file to nothing: shrink below checkpoint -> evict.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncFile(path); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Select(Query{System: "archer2"})); got != 0 {
		t.Fatalf("%d stale entries survived truncation", got)
	}
	// Rewrite one entry; the store converges to the new truth.
	e := entry("archer2", "hpgmg-fv", 42, t0, map[string]float64{"l0": 88})
	if err := perflog.Append(root, "archer2", "hpgmg-fv", e); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncFile(path); err != nil {
		t.Fatal(err)
	}
	got := s.Select(Query{System: "archer2"})
	if len(got) != 1 || got[0].JobID != 42 {
		t.Fatalf("post-truncation state wrong: %d entries", len(got))
	}
}

func TestSyncSurfacesInjectedSyncFault(t *testing.T) {
	root := seedTree(t)
	if err := faultinject.Load(1, []faultinject.Rule{
		{Point: "perfstore.sync", Kind: faultinject.KindError, Times: 1},
	}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	s := Open(root)
	if err := s.Sync(); !faultinject.Is(err) {
		t.Fatalf("sync fault not surfaced: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("recovery sync failed: %v", err)
	}
	if s.Len() != 5 {
		t.Fatalf("entries = %d, want 5", s.Len())
	}
}
