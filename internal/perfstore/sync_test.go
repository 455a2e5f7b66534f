package perfstore

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/perflog"
)

// tiedTree writes a tree of several files per system in which every
// file holds entries at the same few timestamps, so the order of a
// query's answer across files is decided by ingest sequence alone.
func tiedTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	job := 0
	for _, system := range []string{"archer2", "cosma8", "csd3", "isambard-macs"} {
		for _, benchmark := range []string{"babelstream-omp", "hpcg", "hpgmg-fv"} {
			var ents []*perflog.Entry
			for i := 0; i < 40; i++ {
				job++
				ents = append(ents, entry(system, benchmark, job,
					t0.Add(time.Duration(i%4)*time.Minute), map[string]float64{"l0": float64(job)}))
			}
			if err := perflog.Append(root, system, benchmark, ents...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return root
}

// syncAt boots a fresh store over root with GOMAXPROCS set to procs and
// returns the store, Select(Query{}) rendered, and Sync's error.
func syncAt(t *testing.T, root string, procs int) (*Store, []string, error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	s := Open(root)
	err := s.Sync()
	var lines []string
	for _, e := range s.Select(Query{}) {
		lines = append(lines, e.Line())
	}
	return s, lines, err
}

// TestSyncOrderIndependentOfParallelism: files are parsed concurrently
// but committed in walk order, so a boot on one CPU and a boot on eight
// hold the same entries in the same (time, seq) order — the serial
// walk's — and did the same parsing work.
func TestSyncOrderIndependentOfParallelism(t *testing.T) {
	root := tiedTree(t)
	// The serial walk's order: files in lexical order, lines in file
	// order, stably sorted by time.
	walked, err := perflog.ReadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(walked, func(a, b *perflog.Entry) int { return a.Time.Compare(b.Time) })
	var want []string
	for _, e := range walked {
		want = append(want, e.Line())
	}

	s1, lines1, err1 := syncAt(t, root, 1)
	s8, lines8, err8 := syncAt(t, root, 8)
	if err1 != nil || err8 != nil {
		t.Fatalf("sync errors: %v / %v", err1, err8)
	}
	if !slices.Equal(lines1, want) {
		t.Fatalf("GOMAXPROCS=1 order is not the serial walk's (%d vs %d entries)", len(lines1), len(want))
	}
	if !slices.Equal(lines8, want) {
		t.Fatalf("GOMAXPROCS=8 order is not the serial walk's (%d vs %d entries)", len(lines8), len(want))
	}
	if a, b := s1.Stats(), s8.Stats(); a.BytesParsed != b.BytesParsed || a.BytesParsed == 0 || a != b {
		t.Fatalf("stats diverge: %+v vs %+v", a, b)
	}
}

// TestSyncParseErrorKeepsGoodPrefix: a malformed line stops the sync at
// that file — its good prefix indexed, its checkpoint left just before
// the bad line, earlier files whole, later files untouched — however
// many files were being parsed at once.
func TestSyncParseErrorKeepsGoodPrefix(t *testing.T) {
	root := tiedTree(t)
	bad := filepath.Join(root, "cosma8", "hpcg.log")
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	const good = 7
	prefix := strings.Join(lines[:good], "")
	mangled := prefix + "this is not a perflog line\n" + strings.Join(lines[good:], "")
	if err := os.WriteFile(bad, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 8} {
		s, _, err := syncAt(t, root, procs)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("hpcg.log @%d", len(prefix))) {
			t.Fatalf("GOMAXPROCS=%d: sync error = %v, want a parse error at offset %d", procs, err, len(prefix))
		}
		if got := s.ck[bad].offset; got != int64(len(prefix)) {
			t.Fatalf("GOMAXPROCS=%d: checkpoint at %d, want %d (just before the bad line)", procs, got, len(prefix))
		}
		// archer2's three files and cosma8/babelstream-omp precede the
		// bad file in walk order.
		for _, c := range []struct {
			system, benchmark string
			want              int
		}{
			{"archer2", "", 120},
			{"cosma8", "babelstream-omp", 40},
			{"cosma8", "hpcg", good},
			{"cosma8", "hpgmg-fv", 0},
			{"csd3", "", 0},
		} {
			q, want := Query{System: c.system, Benchmark: c.benchmark}, c.want
			if got := len(s.Select(q)); got != want {
				t.Errorf("GOMAXPROCS=%d: %+v holds %d entries, want %d", procs, q, got, want)
			}
		}
	}
}
