package perfstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fom"
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
	walked := wholeTree(t, root)
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
	if a, b := s1.Stats(), s8.Stats(); a.BytesParsed != b.BytesParsed || a.BytesParsed == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("stats diverge: %+v vs %+v", a, b)
	}
}

// TestSyncParseErrorKeepsGoodPrefix: a malformed line costs that line
// alone. The sync indexes the good lines on both sides of it, moves the
// checkpoint to the end of the file, quarantines the line with its
// offset and length, and fails nothing — however many files were being
// parsed at once.
func TestSyncParseErrorKeepsGoodPrefix(t *testing.T) {
	root := tiedTree(t)
	bad := filepath.Join(root, "cosma8", "hpcg.log")
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	const good = 7
	const junk = "this is not a perflog line\n"
	prefix := strings.Join(lines[:good], "")
	mangled := prefix + junk + strings.Join(lines[good:], "")
	if err := os.WriteFile(bad, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 8} {
		badBefore := metricBadLines.Value()
		s, _, err := syncAt(t, root, procs)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: sync error = %v, want the bad line quarantined", procs, err)
		}
		if got := s.ck[bad].offset; got != int64(len(mangled)) {
			t.Fatalf("GOMAXPROCS=%d: checkpoint at %d, want %d (the end of the file)", procs, got, len(mangled))
		}
		st := s.Stats()
		want := perflog.BadLine{File: bad, Offset: int64(len(prefix)), Length: len(junk), Error: `perflog: malformed field "this is not a perflog line"`}
		if st.BadLines != 1 || len(st.Quarantined) != 1 || st.Quarantined[0] != want {
			t.Fatalf("GOMAXPROCS=%d: quarantine %d %+v, want one %+v", procs, st.BadLines, st.Quarantined, want)
		}
		if got := metricBadLines.Value() - badBefore; got != 1 {
			t.Errorf("GOMAXPROCS=%d: perfstore_bad_lines_total moved by %g, want 1", procs, got)
		}
		for _, c := range []struct {
			system, benchmark string
			want              int
		}{
			{"archer2", "", 120},
			{"cosma8", "babelstream-omp", 40},
			{"cosma8", "hpcg", 40},
			{"cosma8", "hpgmg-fv", 40},
			{"csd3", "", 120},
		} {
			q, want := Query{System: c.system, Benchmark: c.benchmark}, c.want
			if got := len(s.Select(q)); got != want {
				t.Errorf("GOMAXPROCS=%d: %+v holds %d entries, want %d", procs, q, got, want)
			}
		}
	}
}

// TestFailedReadCountsIndexedPrefix: a read the perfstore.read fault
// cuts short indexes the whole lines before the cut, counts them in
// Stats (and so in /healthz and the ingest metrics), and leaves the
// checkpoint before the torn line for the next sync to read whole.
func TestFailedReadCountsIndexedPrefix(t *testing.T) {
	root := t.TempDir()
	var text string
	for i := 0; i < 3; i++ {
		text += entry("archer2", "hpgmg-fv", i+1, t0.Add(time.Duration(i)*time.Hour), map[string]float64{"l0": 95}).Line() + "\n"
	}
	prefix := len(strings.SplitAfter(text, "\n")[0]) * 2 // two whole lines
	path := filepath.Join(root, "archer2", "hpgmg-fv.log")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	s := Open(root)
	loadFaults(t, 1, fmt.Sprintf("perfstore.read:short:bytes=%d:times=1", prefix+5))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if s.Len() != 2 || st.EntriesAdded != 2 || st.BytesParsed != int64(prefix) || st.FilesScanned != 1 {
		t.Fatalf("Len %d, stats %+v: want 2 entries added, %d bytes parsed, 1 file scanned", s.Len(), st, prefix)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); s.Len() != 3 || st.BytesParsed != int64(len(text)) || st.BadLines != 0 {
		t.Fatalf("after the next sync: Len %d, stats %+v: want 3 entries, %d bytes, nothing quarantined", s.Len(), st, len(text))
	}
}

// TestReadTailMatchesLineReader: the chunked tail reader returns what
// the bufio line loop it replaced returns — the same entries, bytes
// consumed, and error text — for a line straddling a chunk boundary, a
// line longer than a chunk, no trailing newline, blank, comment,
// whitespace-padded and CRLF lines, a malformed line, a short read, a
// rewritten (shrunk) file, and gap reads bounded before the file's end.
func TestReadTailMatchesLineReader(t *testing.T) {
	dir := t.TempDir()
	var good strings.Builder
	var starts []int64 // offsets of the lines that hold an entry
	line := func(i int, extra map[string]string) {
		starts = append(starts, int64(good.Len()))
		e := entry("archer2", "hpcg", i, t0.Add(time.Duration(i)*time.Second), map[string]float64{"l0": float64(i)})
		for k, v := range extra {
			e.Extra[k] = v
		}
		good.WriteString(e.Line() + "\n")
	}
	good.WriteString("# a comment\n\n")
	line(0, nil)
	good.WriteString("   \t\n  # indented comment\r\n")
	good.WriteString("  " + strings.TrimSuffix(entry("archer2", "hpcg", 1, t0, nil).Line(), "\n") + "  \r\n")
	for i := 2; good.Len() < 3*perflog.ScanChunk/2; i++ {
		line(i, nil)
	}
	line(-1, map[string]string{"blob": strings.Repeat("x", perflog.ScanChunk*3/2)})
	for i := 0; i < 2000; i++ {
		line(100_000+i, nil)
	}
	good.WriteString("ts=2023-07-07T10:02:11Z|benchmark=torn") // no trailing newline
	content := good.String()
	if content[perflog.ScanChunk-1] == '\n' {
		t.Fatal("no line straddles the first chunk boundary")
	}
	goodPath := filepath.Join(dir, "good.log")
	if err := os.WriteFile(goodPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	badAt := starts[40]
	badPath := filepath.Join(dir, "bad.log")
	if err := os.WriteFile(badPath, []byte(content[:badAt]+"this is not a perflog line\n"+content[badAt:]), 0o644); err != nil {
		t.Fatal(err)
	}
	size, last := int64(len(content)), len(starts)-1
	for _, c := range []struct {
		name     string
		path     string
		from, to int64
		faults   string
	}{
		{"whole file", goodPath, 0, -1, ""},
		{"from a line past the first chunk", goodPath, starts[last-1500], -1, ""},
		{"tail holding only the long line", goodPath, starts[last-2000], starts[last-1999], ""},
		{"bounded gap", goodPath, starts[3], starts[last-10], ""},
		{"bounded gap ending mid-line", goodPath, starts[3], starts[last-10] + 17, ""},
		{"nothing past the checkpoint", goodPath, size, -1, ""},
		{"rewritten file", goodPath, size + 100, -1, ""},
		{"short read", goodPath, 0, -1, "perfstore.read:short:bytes=700000"},
		{"short read of a gap", goodPath, starts[3], starts[last-10], "perfstore.read:short:bytes=5000"},
		{"failed sync", goodPath, 0, -1, "perfstore.sync:error"},
		{"malformed line", badPath, 0, -1, ""},
		{"gap before the malformed line", badPath, 0, badAt, ""},
		{"gap across the malformed line", badPath, 0, starts[45] + 27, ""},
		{"missing file", filepath.Join(dir, "missing.log"), 0, -1, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			read := func(fn func(string, int64, int64) fileTail) fileTail {
				if c.faults != "" {
					loadFaults(t, 1, c.faults)
					defer faultinject.Reset()
				}
				return fn(c.path, c.from, c.to)
			}
			got, want := read(readTail), read(readTailRef)
			if got.from != want.from || got.shrunk != want.shrunk || got.Bytes != want.Bytes || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
				t.Fatalf("got from %d shrunk %v bytes %d err %v\nwant from %d shrunk %v bytes %d err %v",
					got.from, got.shrunk, got.Bytes, got.err, want.from, want.shrunk, want.Bytes, want.err)
			}
			if !reflect.DeepEqual(got.Entries, want.Entries) {
				t.Fatalf("%d entries, want %d (or they differ)", len(got.Entries), len(want.Entries))
			}
			if !reflect.DeepEqual(got.Bad, want.Bad) {
				t.Fatalf("quarantined %+v, want %+v", got.Bad, want.Bad)
			}
		})
	}
}

// TestTornTailNeverServed: a file cut at any byte and then appended to
// serves exactly its whole lines plus the acked run, whichever way the
// tree is read — a text boot, a sealed reboot, or perflog.ReadTree —
// and a fragment left by the cut is quarantined exactly once. The lines
// carry escaped '|' and '\' and a FOM, so cuts land inside escapes and
// inside the number. Each cut is its own benchmark's file in one tree.
func TestTornTailNeverServed(t *testing.T) {
	line := func(benchmark string, job int) *perflog.Entry {
		return &perflog.Entry{
			Time: t0.Add(time.Duration(job) * time.Hour), Benchmark: benchmark, System: "archer2",
			Spec: `stream|omp\gcc`, JobID: job, Result: "pass",
			FOMs: map[string]fom.Value{"Triad": {Name: "Triad", Value: 123456.75}},
		}
	}
	root, data := t.TempDir(), t.TempDir()
	want := map[string][]string{} // benchmark -> the lines it must serve
	fragments := 0
	for cut := 0; ; cut++ {
		benchmark := fmt.Sprint("stream-", cut)
		text := line(benchmark, 1).Line() + "\n" + line(benchmark, 2).Line() + "\n"
		if cut > len(text) {
			break
		}
		path := filepath.Join(root, "archer2", benchmark+".log")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text[:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
		acked := line(benchmark, 3)
		if err := perflog.Append(root, "archer2", benchmark, acked); err != nil {
			t.Fatal(err)
		}
		whole := text[:strings.LastIndexByte(text[:cut], '\n')+1]
		lines := strings.Split(whole, "\n")
		want[benchmark] = append(lines[:len(lines)-1], acked.Line())
		if len(whole) < cut {
			fragments++
		}
	}
	check := func(how string, got []*perflog.Entry) {
		t.Helper()
		served := map[string][]string{}
		for _, e := range got {
			served[e.Benchmark] = append(served[e.Benchmark], e.Line())
		}
		for benchmark, lines := range want {
			if !slices.Equal(served[benchmark], lines) {
				t.Errorf("%s, %s: served %q, want %q", how, benchmark, served[benchmark], lines)
			}
		}
	}
	quarantined := func(how string, n int) {
		t.Helper()
		if n != fragments {
			t.Errorf("%s: %d lines quarantined, want %d (one per fragment)", how, n, fragments)
		}
	}

	s := Open(root)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	check("text boot", s.Select(Query{}))
	quarantined("text boot", s.Stats().BadLines)

	sealed, err := OpenTiered(root, data)
	if err == nil {
		err = sealed.Sync()
	}
	if err == nil {
		_, err = sealed.Seal()
	}
	if err != nil {
		t.Fatal(err)
	}
	rebooted, err := OpenTiered(root, data)
	if err == nil {
		err = rebooted.Sync()
	}
	if err != nil {
		t.Fatal(err)
	}
	check("sealed reboot", rebooted.Select(Query{}))
	quarantined("seal and reboot", sealed.Stats().BadLines+rebooted.Stats().BadLines)

	entries, err := perflog.ReadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	check("ReadTree", entries)
}

// TestAdvanceIndexesReadPrefixThenFails: a read-ahead an I/O error cut
// short after two whole lines still enters the store — advance indexes
// both entries, moves the checkpoint over exactly their bytes, counts
// them in Stats, and returns the error.
func TestAdvanceIndexesReadPrefixThenFails(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "archer2", "hpgmg-fv.log")
	two := entry("archer2", "hpgmg-fv", 1, t0, map[string]float64{"l0": 95}).Line() + "\n" +
		entry("archer2", "hpgmg-fv", 2, t0.Add(time.Hour), map[string]float64{"l0": 94}).Line() + "\n"
	cut := errors.New("disk went away")
	lines, err := perflog.Scan(io.MultiReader(strings.NewReader(two), iotest.ErrReader(cut)), 0, path, 0)
	s := Open(root)
	s.ckMu.Lock()
	err = s.advance(path, &fileTail{Lines: lines, err: err}, -1)
	s.ckMu.Unlock()
	if !errors.Is(err, cut) {
		t.Fatalf("advance returned %v, want the read error", err)
	}
	st := s.Stats()
	if s.Len() != 2 || s.checkpointOffset(path) != int64(len(two)) || st.EntriesAdded != 2 || st.BytesParsed != int64(len(two)) || st.FilesScanned != 1 {
		t.Fatalf("Len %d, checkpoint %d, stats %+v: want 2 entries indexed and counted over %d bytes", s.Len(), s.checkpointOffset(path), st, len(two))
	}
}
