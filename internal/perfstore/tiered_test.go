package perfstore

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/perflog"
)

// loadFaults arms the process-wide fault injector for one test.
func loadFaults(t *testing.T, seed int64, schedule string) {
	t.Helper()
	rules, err := faultinject.ParseSchedule(schedule)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Load(seed, rules); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Reset)
}

// tieredQueries is the query battery the tier-equivalence tests run —
// every plan shape: full scan, postings, time window, bounded tail,
// and combinations.
func tieredQueries() []Query {
	return []Query{
		{},
		{System: "archer2"},
		{Benchmark: "hpgmg-fv", Result: "pass"},
		{FOM: "l0", Since: t0.Add(90 * time.Minute)},
		{Limit: 7},
		{System: "csd3", Limit: 3},
		{Extra: map[string]string{"num_tasks": "8"}},
		{Since: t0.Add(-time.Hour)},
		{Since: t0.Add(1000 * time.Hour)},
	}
}

// aggApproxEqual compares aggregate rows exactly in every field except
// Mean, which may differ in the last ulps: the tiered store merges
// per-tier partial sums, and float addition is not associative across
// partition boundaries. Min/Max/Last/Count are order-independent and
// must match bit-for-bit.
func aggApproxEqual(got, want []Aggregate) error {
	if len(got) != len(want) {
		return fmt.Errorf("row count %d vs %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Group != w.Group || g.Count != w.Count || g.Min != w.Min || g.Max != w.Max || g.Last != w.Last || g.Unit != w.Unit {
			return fmt.Errorf("row %d: %+v vs %+v", i, g, w)
		}
		if diff := math.Abs(g.Mean - w.Mean); diff > 1e-9*math.Max(math.Abs(g.Mean), 1) {
			return fmt.Errorf("row %d: mean %v vs %v", i, g.Mean, w.Mean)
		}
	}
	return nil
}

// sameLines compares two result slices by canonical perflog line — the
// cross-boot equality notion (pointer identity cannot survive a
// restart, byte identity must).
func sameLines(a, b []*perflog.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Line() != b[i].Line() {
			return false
		}
	}
	return true
}

// TestTieredSealAndQuery: sealing must be invisible to queries — the
// same entries come back, in the same order, with the head empty and
// the segment answering.
func TestTieredSealAndQuery(t *testing.T) {
	root := seedTree(t)
	s, err := OpenTiered(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	before := map[string][]*perflog.Entry{}
	for i, q := range tieredQueries() {
		before[fmt.Sprint(i)] = s.Select(q)
	}
	g0 := s.Generation()
	n, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("sealed %d entries, want 5", n)
	}
	if s.Generation() == g0 {
		t.Fatal("seal did not move the generation (service caches would serve stale)")
	}
	st := s.Stats()
	if st.HeadEntries != 0 || st.SealedEntries != 5 || st.SealedSegments != 1 {
		t.Fatalf("post-seal stats: %+v", st)
	}
	if st.Entries != 5 || st.Systems != 2 {
		t.Fatalf("post-seal totals: %+v", st)
	}
	for i, q := range tieredQueries() {
		got := s.Select(q)
		if !sameEntries(got, before[fmt.Sprint(i)]) {
			t.Fatalf("query %+v: sealed results diverged from pre-seal", q)
		}
		if !sameEntries(got, s.selectScan(q)) {
			t.Fatalf("query %+v: sealed Select diverged from reference scan", q)
		}
	}
	if st := s.Stats(); st.Systems != 2 || len(s.Select(Query{System: "archer2"})) == 0 || len(s.Select(Query{System: "csd3"})) == 0 {
		t.Fatalf("systems after seal: %d", st.Systems)
	}
	// Sealing an empty head is a no-op, not a new segment.
	if n, err := s.Seal(); err != nil || n != 0 {
		t.Fatalf("re-seal: n=%d err=%v", n, err)
	}
	if s.Stats().SealedSegments != 1 {
		t.Fatal("re-seal grew the segment list")
	}
}

// TestTieredBootZeroReparse is the acceptance check: after seal +
// restart, boot recovers everything from segment headers and the
// watermarks, and the re-sync parses zero perflog bytes.
func TestTieredBootZeroReparse(t *testing.T) {
	root := seedTree(t)
	dataDir := t.TempDir()
	s1, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Seal(); err != nil {
		t.Fatal(err)
	}
	want := map[int][]*perflog.Entry{}
	for i, q := range tieredQueries() {
		want[i] = s1.Select(q)
	}

	s2, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.BytesParsed != 0 {
		t.Fatalf("cold boot over sealed store parsed %d perflog bytes, want 0", st.BytesParsed)
	}
	if st.EntriesAdded != 0 || st.HeadEntries != 0 {
		t.Fatalf("cold boot re-ingested entries: %+v", st)
	}
	if st.Entries != 5 || st.SealedSegments != 1 {
		t.Fatalf("cold boot stats: %+v", st)
	}
	for i, q := range tieredQueries() {
		if got := s2.Select(q); !sameLines(got, want[i]) {
			t.Fatalf("query %+v: rebooted results diverged", q)
		}
		if got := s2.Select(q); !sameEntries(got, s2.selectScan(q)) {
			t.Fatalf("query %+v: rebooted Select diverged from its own scan", q)
		}
	}
}

// TestTieredTailReingest: entries appended after the seal live past the
// watermark; a reboot parses exactly that tail — no loss, no
// duplication, ordering intact.
func TestTieredTailReingest(t *testing.T) {
	root := seedTree(t)
	dataDir := t.TempDir()
	s1, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Seal(); err != nil {
		t.Fatal(err)
	}
	// Out-of-band appends after the seal: same file as sealed entries
	// plus a brand-new system.
	tail1 := entry("archer2", "hpgmg-fv", 77, t0.Add(30*time.Hour), map[string]float64{"l0": 91})
	if err := perflog.Append(root, "archer2", "hpgmg-fv", tail1); err != nil {
		t.Fatal(err)
	}
	tail2 := entry("cosma8", "hpcg", 78, t0.Add(31*time.Hour), map[string]float64{"l0": 12})
	if err := perflog.Append(root, "cosma8", "hpcg", tail2); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	wantTail := int64(len(tail1.Line()) + len(tail2.Line()) + 2)
	if st.BytesParsed != wantTail {
		t.Fatalf("reboot parsed %d bytes, want exactly the %d-byte tail", st.BytesParsed, wantTail)
	}
	if st.Entries != 7 || st.HeadEntries != 2 || st.SealedEntries != 5 {
		t.Fatalf("reboot stats: %+v", st)
	}
	// The store must agree entirely with a from-scratch text rebuild.
	clean := Open(root)
	if err := clean.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, q := range tieredQueries() {
		if !sameLines(s2.Select(q), clean.Select(q)) {
			t.Fatalf("query %+v: tiered store diverged from clean rebuild", q)
		}
	}
}

// crashRecoveryCheck reopens root+dataDir after a failed tier
// operation and asserts the store converges exactly to the text tree —
// the no-loss / no-duplication invariant of every crash window.
func crashRecoveryCheck(t *testing.T, root, dataDir string) {
	t.Helper()
	faultinject.Reset()
	s, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync after crash: %v", err)
	}
	clean := Open(root)
	if err := clean.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != clean.Len() {
		t.Fatalf("recovered store has %d entries, text tree has %d (lost or duplicated)", s.Len(), clean.Len())
	}
	for _, q := range tieredQueries() {
		if !sameLines(s.Select(q), clean.Select(q)) {
			t.Fatalf("query %+v: recovered store diverged from text tree", q)
		}
	}
}

// TestTieredCrashMidSeal kills the segment writer before the data is
// durable: Seal must fail cleanly, the head must keep serving, and a
// reboot must recover everything from the perflog tail.
func TestTieredCrashMidSeal(t *testing.T) {
	root := seedTree(t)
	dataDir := t.TempDir()
	s, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	loadFaults(t, 1, "perfstore.segwrite:error:times=1")
	if _, err := s.Seal(); err == nil {
		t.Fatal("seal with injected write fault succeeded")
	}
	// The failed seal must not have torn the store: head still serves.
	if s.Len() != 5 {
		t.Fatalf("failed seal changed Len to %d", s.Len())
	}
	if s.Stats().SealedSegments != 0 {
		t.Fatal("failed seal left a segment in the manifest")
	}
	// The fault fires before any byte lands, so it strands no temp file;
	// a kill -9 mid-write does. Plant that debris: reboot must sweep it.
	debris := filepath.Join(dataDir, segFileName(1)+".tmp")
	if err := os.WriteFile(debris, []byte("half a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	crashRecoveryCheck(t, root, dataDir)
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("reboot left the crashed seal's temp file behind (stat err %v)", err)
	}
}

// TestTieredCrashMidManifest kills the manifest swap after the segment
// file landed: the orphan must be swept on reboot and the entries
// re-ingested from the perflog tail behind the old watermarks.
func TestTieredCrashMidManifest(t *testing.T) {
	root := seedTree(t)
	dataDir := t.TempDir()
	s, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	loadFaults(t, 1, "perfstore.manifest:error:times=1")
	if _, err := s.Seal(); err == nil {
		t.Fatal("seal with injected manifest fault succeeded")
	}
	crashRecoveryCheck(t, root, dataDir)
	// The orphan sweep must have left no unreferenced segment files.
	des, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".tmp") {
			t.Fatalf("temp debris survived recovery: %s", de.Name())
		}
	}
}

// TestTieredCrashMidCompaction kills the compactor at both of its
// fallible stages; either way the reboot sees a complete segment set.
func TestTieredCrashMidCompaction(t *testing.T) {
	for _, point := range []string{"perfstore.compact", "perfstore.segwrite", "perfstore.manifest"} {
		t.Run(point, func(t *testing.T) {
			root := seedTree(t)
			dataDir := t.TempDir()
			s, err := OpenTiered(root, dataDir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			// Two seals with an append in between → two segments.
			if _, err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			e := entry("archer2", "hpgmg-fv", 99, t0.Add(40*time.Hour), map[string]float64{"l0": 77})
			if err := appendAndSync(s, "archer2", "hpgmg-fv", e); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			if s.Stats().SealedSegments != 2 {
				t.Fatalf("want 2 segments, have %d", s.Stats().SealedSegments)
			}
			loadFaults(t, 1, point+":error:times=1")
			if ran, err := s.Compact(2); err == nil && ran {
				t.Fatal("compaction with injected fault succeeded")
			}
			// The live store must still serve everything.
			faultinject.Reset()
			if s.Len() != 6 {
				t.Fatalf("failed compaction changed Len to %d", s.Len())
			}
			crashRecoveryCheck(t, root, dataDir)
		})
	}
}

// TestSwapFailureLeavesTierUnchanged: a manifest swap that fails during
// Seal, Compact or sealed eviction removes every segment file it wrote
// and leaves the manifest, the segment list, Stats and the data
// directory as they were; once the fault clears, the same call goes
// through.
func TestSwapFailureLeavesTierUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(s *Store) error
	}{
		{"seal", func(s *Store) error { _, err := s.Seal(); return err }},
		{"compact", func(s *Store) error { _, err := s.Compact(2); return err }},
		{"evict", func(s *Store) error {
			// Rewrite archer2's file shorter: both segments hold its rows.
			path := filepath.Join(s.root, "archer2", "hpgmg-fv.log")
			e := entry("archer2", "hpgmg-fv", 500, t0.Add(60*time.Hour), map[string]float64{"l0": 42})
			if err := os.WriteFile(path, []byte(e.Line()+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			return s.SyncFile(path)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root, dataDir := seedTree(t), t.TempDir()
			s, err := OpenTiered(root, dataDir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			// Two segments, both holding archer2 rows, and a csd3 row in
			// the head.
			for i, sys := range []string{"archer2", "csd3"} {
				if _, err := s.Seal(); err != nil {
					t.Fatal(err)
				}
				e := entry(sys, "hpgmg-fv", 300+i, t0.Add(time.Duration(40+i)*time.Hour), map[string]float64{"l0": 70})
				if err := appendAndSync(s, sys, "hpgmg-fv", e); err != nil {
					t.Fatal(err)
				}
			}
			snapshot := func() (string, []*segment, Stats, []string) {
				man, err := os.ReadFile(filepath.Join(dataDir, manifestName))
				if err != nil {
					t.Fatal(err)
				}
				des, err := os.ReadDir(dataDir)
				if err != nil {
					t.Fatal(err)
				}
				var files []string
				for _, de := range des {
					files = append(files, de.Name())
				}
				s.seg.RLock()
				defer s.seg.RUnlock()
				return string(man), slices.Clone(s.seg.list), s.Stats(), files
			}
			man, list, st, files := snapshot()
			if st.SealedSegments != 2 || st.HeadEntries != 1 {
				t.Fatalf("set-up: %+v, want 2 segments and 1 head entry", st)
			}
			loadFaults(t, 1, "perfstore.manifest:error:times=1")
			if err := tc.op(s); err == nil {
				t.Fatal("a failed manifest swap reported success")
			}
			man2, list2, st2, files2 := snapshot()
			switch {
			case man2 != man:
				t.Errorf("manifest changed:\n%s\nwas\n%s", man2, man)
			case !slices.Equal(list2, list):
				t.Errorf("segment list changed")
			case !reflect.DeepEqual(st2, st):
				t.Errorf("stats %+v, were %+v", st2, st)
			case !slices.Equal(files2, files):
				t.Errorf("data dir holds %v, held %v", files2, files)
			}
			faultinject.Reset()
			if err := tc.op(s); err != nil {
				t.Fatal(err)
			}
			if _, _, st3, _ := snapshot(); st3.ManifestGeneration != st.ManifestGeneration+1 {
				t.Fatalf("retried swap left generation %d, want %d", st3.ManifestGeneration, st.ManifestGeneration+1)
			}
			crashRecoveryCheck(t, root, dataDir)
		})
	}
}

// TestTieredCompactionMergesSegments: the happy path — many small
// segments merge into one, queries unchanged, old files deleted.
func TestTieredCompactionMergesSegments(t *testing.T) {
	root := seedTree(t)
	dataDir := t.TempDir()
	s, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		e := entry("archer2", "hpgmg-fv", 200+i, t0.Add(time.Duration(50+i)*time.Hour), map[string]float64{"l0": float64(i)})
		if err := appendAndSync(s, "archer2", "hpgmg-fv", e); err != nil {
			t.Fatal(err)
		}
	}
	want := map[int][]*perflog.Entry{}
	for i, q := range tieredQueries() {
		want[i] = s.Select(q)
	}
	g0 := s.Generation()
	ran, err := s.Compact(2)
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("compaction did not run")
	}
	if s.Generation() == g0 {
		t.Fatal("compaction did not move the generation")
	}
	st := s.Stats()
	if st.SealedSegments != 1 {
		t.Fatalf("compaction left %d segments", st.SealedSegments)
	}
	for i, q := range tieredQueries() {
		if !sameEntries(s.Select(q), want[i]) {
			t.Fatalf("query %+v: compaction changed results", q)
		}
	}
	// Exactly one .seg file remains on disk.
	des, err := os.ReadDir(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".seg") {
			segFiles++
		}
	}
	if segFiles != 1 {
		t.Fatalf("%d segment files on disk after compaction", segFiles)
	}
	crashRecoveryCheck(t, root, dataDir)
}

// TestTieredEvictTruncatedSealedFile: truncating a perflog file whose
// entries are already sealed must evict them from the sealed tier too,
// converging with a clean text rebuild.
func TestTieredEvictTruncatedSealedFile(t *testing.T) {
	root := seedTree(t)
	dataDir := t.TempDir()
	s, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// Rewrite archer2's file shorter: its three sealed entries must go,
	// replaced by the one new line; csd3's sealed entries must survive.
	path := filepath.Join(root, "archer2", "hpgmg-fv.log")
	e := entry("archer2", "hpgmg-fv", 500, t0.Add(60*time.Hour), map[string]float64{"l0": 42})
	if err := os.WriteFile(path, []byte(e.Line()+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncFile(path); err != nil {
		t.Fatal(err)
	}
	clean := Open(root)
	if err := clean.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != clean.Len() {
		t.Fatalf("tiered store has %d entries after sealed eviction, clean rebuild %d", s.Len(), clean.Len())
	}
	for _, q := range tieredQueries() {
		if !sameLines(s.Select(q), clean.Select(q)) {
			t.Fatalf("query %+v: diverged after sealed eviction", q)
		}
	}
	st := s.Stats()
	if st.SealedEntries != 2 {
		t.Fatalf("sealed tier holds %d entries after eviction, want csd3's 2", st.SealedEntries)
	}
	// And the eviction survives a reboot.
	crashRecoveryCheck(t, root, dataDir)
}

// TestTieredMatchesInMemoryRandomized is the tier-equivalence property
// test: the same entry pointers are fed to a memory-only store and a
// tiered store (sealed mid-stream, twice), and every randomized query
// must return the same answer from both — Select entry by entry,
// Aggregate and Regressions by deep equality. Every query runs again
// after a reboot (OpenTiered on the same directories, the head sealed
// first), so segments loaded from disk answer it.
func TestTieredMatchesInMemoryRandomized(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mem := Open("unused")
		root, dataDir := t.TempDir(), t.TempDir()
		tiered, err := OpenTiered(root, dataDir)
		if err != nil {
			t.Fatal(err)
		}
		const n = 2000
		for i := 0; i < n; i++ {
			e := randEntry(rng, i)
			mem.add(e, "mem.log")
			tiered.add(e, "mem.log")
			// Seal twice mid-stream so head + two segment generations all
			// hold data (the second seal lands after more head growth).
			if i == n/3 || i == 2*n/3 {
				if _, err := tiered.Seal(); err != nil {
					t.Fatal(err)
				}
			}
		}
		qrng := rand.New(rand.NewSource(seed * 131))
		var queries [][2]Query // a Select, and the Aggregate and Regressions drawn from it
		for trial := 0; trial < 200; trial++ {
			sel := randQuery(qrng)
			q := sel
			q.FOM = []string{"l0", "l1"}[qrng.Intn(2)]
			q.GroupBy = [][]string{nil, {"system"}, {"result", "num_tasks"}}[qrng.Intn(3)]
			queries = append(queries, [2]Query{sel, q})
		}
		check := func(stage string, s *Store) {
			t.Helper()
			for trial, qs := range queries {
				sel, q := qs[0], qs[1]
				if !sameEntries(s.Select(sel), mem.Select(sel)) {
					t.Fatalf("seed %d %s trial %d: tiered Select diverged from in-memory\nquery %+v", seed, stage, trial, sel)
				}
				ta, err := s.Aggregate(q)
				if err != nil {
					t.Fatal(err)
				}
				ma, err := mem.Aggregate(q)
				if err != nil {
					t.Fatal(err)
				}
				if err := aggApproxEqual(ta, ma); err != nil {
					t.Fatalf("seed %d %s trial %d: tiered Aggregate diverged: %v\nquery %+v\ngot  %+v\nwant %+v", seed, stage, trial, err, q, ta, ma)
				}
				tr, err := s.Regressions(q, 0.1, 5)
				if err != nil {
					t.Fatal(err)
				}
				mr, err := mem.Regressions(q, 0.1, 5)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tr, mr) {
					t.Fatalf("seed %d %s trial %d: tiered Regressions diverged\nquery %+v", seed, stage, trial, q)
				}
			}
		}
		check("live", tiered)
		// After a compaction the equivalence must still hold.
		if ran, err := tiered.Compact(2); err != nil || !ran {
			t.Fatalf("compact: ran=%v err=%v", ran, err)
		}
		check("compacted", tiered)
		if _, err := tiered.Seal(); err != nil {
			t.Fatal(err)
		}
		rebooted, err := OpenTiered(root, dataDir)
		if err != nil {
			t.Fatal(err)
		}
		check("rebooted", rebooted)
	}
}

// TestQueriesMatchReferencesTiered is TestQueriesMatchReferencesHead on
// the sealed tier: a store sealed in three cuts with nothing left in the
// head, and one with two segments under a live head. Timestamps are drawn
// from one range throughout, so every segment's time range overlaps the
// others' and the head's — a group's series never concatenates in order
// by luck. Both stores are checked again after an eviction that rewrites
// the segments, after a compaction, and after a reboot that loads the
// segments from disk.
func TestQueriesMatchReferencesTiered(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seals []int // entry counts at which the head is sealed
	}{
		{"sealed only", []int{700, 1400, 2000}},
		{"head and sealed", []int{600, 1200}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.seals))))
			root, dataDir := t.TempDir(), t.TempDir()
			s, err := OpenTiered(root, dataDir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 2000; i++ {
				s.add(refEntry(rng, i), []string{"a.log", "a.log", "b.log"}[rng.Intn(3)])
				if slices.Contains(tc.seals, i) {
					if _, err := s.Seal(); err != nil {
						t.Fatal(err)
					}
				}
			}
			qrng := rand.New(rand.NewSource(99))
			type asked struct {
				q      Query
				window int
			}
			var queries []asked
			check := func(trials int) {
				t.Helper()
				for trial := 0; trial < trials; trial++ {
					q, window := refQuery(qrng)
					checkAgainstRefs(t, s, q, window)
					queries = append(queries, asked{q, window})
				}
			}
			check(150)
			s.ckMu.Lock()
			err = s.evictFile("b.log")
			s.ckMu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			check(75)
			if ran, err := s.Compact(2); err != nil || !ran {
				t.Fatalf("compact: ran=%v err=%v", ran, err)
			}
			check(75)
			// A window past everything sealed answers from the zone maps.
			pruned := metricSegmentsPruned.Value()
			checkAgainstRefs(t, s, Query{FOM: "l0", Since: t0.Add(1000 * time.Hour)}, 0)
			if metricSegmentsPruned.Value() == pruned {
				t.Fatal("a Since past the segment's MaxT still read it")
			}
			// Every query again on a reboot, where segments loaded from
			// disk answer: the same answers as before it, and the
			// references'.
			if _, err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			rebooted, err := OpenTiered(root, dataDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range queries {
				checkAgainstRefs(t, rebooted, a.q, a.window)
				if !sameEntries(rebooted.Select(a.q), s.Select(a.q)) {
					t.Fatalf("Select answered differently after a reboot\nquery %+v", a.q)
				}
			}
		})
	}
}

// TestTiered100kMatchesIndexed is the at-scale acceptance check: on a
// 100k-entry store the segment-backed path must match the in-memory
// indexed path exactly.
func TestTiered100kMatchesIndexed(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-entry store is slow; run without -short")
	}
	const n = 100_000
	rng := rand.New(rand.NewSource(42))
	mem := Open("unused")
	tiered, err := OpenTiered(t.TempDir(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		e := randEntry(rng, i)
		mem.add(e, "mem.log")
		tiered.add(e, "mem.log")
		if i > 0 && i%30_000 == 0 {
			if _, err := tiered.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tiered.Len() != n || mem.Len() != n {
		t.Fatalf("store sizes: tiered=%d mem=%d", tiered.Len(), mem.Len())
	}
	if tiered.Stats().SealedSegments < 2 {
		t.Fatal("want at least 2 sealed segments for a meaningful check")
	}
	qrng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 60; trial++ {
		q := randQuery(qrng)
		if !sameEntries(tiered.Select(q), mem.Select(q)) {
			t.Fatalf("trial %d: tiered Select diverged on 100k store\nquery %+v", trial, q)
		}
	}
	for _, q := range tieredQueries() {
		if !sameEntries(tiered.Select(q), mem.Select(q)) {
			t.Fatalf("query %+v: tiered Select diverged on 100k store", q)
		}
	}
}

// TestTieredConcurrent is the -race exercise over the full tier
// lifecycle: writers append, a maintenance goroutine seals and
// compacts, readers query — and the store converges to filesystem
// truth afterwards.
func TestTieredConcurrent(t *testing.T) {
	root := t.TempDir()
	s, err := OpenTiered(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
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
				s.Stats()
			}
		}()
	}
	var maint sync.WaitGroup
	maint.Add(1)
	go func() {
		defer maint.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.MaybeSeal(10); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Compact(3); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			sys := []string{"archer2", "csd3", "cosma8"}[w]
			for i := 0; i < 40; i++ {
				// Distinct timestamps per writer: cross-file ties are broken
				// by store-local seq, which legitimately differs between the
				// live store and a fresh rebuild.
				ts := t0.Add(time.Duration(i)*time.Minute + time.Duration(w)*time.Second)
				e := entry(sys, "hpgmg-fv", w*1000+i, ts, map[string]float64{"l0": 90 + float64(i)})
				if err := appendAndSync(s, sys, "hpgmg-fv", e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	maint.Wait()

	clean := Open(root)
	if err := clean.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != clean.Len() {
		t.Fatalf("tiered store diverged from filesystem truth: %d vs %d", s.Len(), clean.Len())
	}
	for _, q := range []Query{{}, {System: "archer2"}, {FOM: "l0", Limit: 7}} {
		if !sameLines(s.Select(q), clean.Select(q)) {
			t.Fatalf("query %+v: diverged after concurrent tier lifecycle", q)
		}
	}
}

// TestTieredSegmentLoadFailureIsObservable: a segment whose data block
// cannot be read is served as absent — queries keep answering from the
// other tiers and the failure is counted, not silent.
func TestTieredSegmentLoadFailureIsObservable(t *testing.T) {
	root := seedTree(t)
	dataDir := t.TempDir()
	s, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// Reboot so the segment is cold (not resident), then make every
	// load attempt fail.
	s2, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	// rate=1 with no times cap fails every attempt, so the retrying
	// loader exhausts its budget and records a failure.
	loadFaults(t, 1, "perfstore.segload:error:rate=1")
	got := s2.Select(Query{System: "archer2"})
	if len(got) != 0 {
		t.Fatalf("unloadable segment still produced %d entries", len(got))
	}
	if s2.Stats().SegmentLoadFailures == 0 {
		t.Fatal("segment load failure not counted")
	}
	// With the fault cleared the next query loads and serves.
	faultinject.Reset()
	if got := s2.Select(Query{System: "archer2"}); len(got) != 3 {
		t.Fatalf("post-fault query returned %d entries, want 3", len(got))
	}
}
