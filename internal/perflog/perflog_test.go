package perflog

import (
	"bytes"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fom"
)

func sampleEntry() *Entry {
	return &Entry{
		Time:      time.Date(2023, 7, 7, 10, 2, 11, 0, time.UTC),
		Benchmark: "hpgmg-fv",
		System:    "archer2",
		Partition: "compute",
		Environ:   "gcc",
		Spec:      "hpgmg%gcc",
		JobID:     17,
		Result:    "pass",
		FOMs: map[string]fom.Value{
			"l0": {Name: "l0", Value: 95.36, Unit: "MDOF/s"},
			"l1": {Name: "l1", Value: 83.43, Unit: "MDOF/s"},
			"l2": {Name: "l2", Value: 62.18, Unit: "MDOF/s"},
		},
		Extra: map[string]string{"num_tasks": "8", "num_cpus_per_task": "8"},
	}
}

// readLog reads every .log file under root (or the one file root
// names) through Scan, in walk order, failing the test on a line that
// does not parse or a torn last line: what a correct writer leaves is
// whole lines that all parse, which ReadTree, skipping both, does not
// check.
func readLog(t *testing.T, root string) []*Entry {
	t.Helper()
	var out []*Entry
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".log") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines, err := Scan(bytes.NewReader(data), int64(len(data)), path, 0)
		if err != nil {
			return err
		}
		if len(lines.Bad) > 0 || lines.Bytes != int64(len(data)) {
			t.Errorf("%s: %d of %d bytes are whole lines; lines that do not parse: %+v", path, lines.Bytes, len(data), lines.Bad)
		}
		out = append(out, lines.Entries...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLineRoundTrip(t *testing.T) {
	e := sampleEntry()
	line := e.Line()
	got, err := ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != e.Benchmark || got.System != e.System || got.JobID != e.JobID {
		t.Errorf("header mismatch: %+v", got)
	}
	if !got.Time.Equal(e.Time) {
		t.Errorf("time = %v", got.Time)
	}
	if len(got.FOMs) != 3 {
		t.Fatalf("FOMs = %v", got.FOMs)
	}
	if got.FOMs["l0"].Value != 95.36 || got.FOMs["l0"].Unit != "MDOF/s" {
		t.Errorf("l0 = %+v", got.FOMs["l0"])
	}
	if got.Extra["num_tasks"] != "8" {
		t.Errorf("extra = %v", got.Extra)
	}
	if !got.Pass() {
		t.Error("pass flag lost")
	}
}

func TestLineDeterministic(t *testing.T) {
	a, b := sampleEntry().Line(), sampleEntry().Line()
	if a != b {
		t.Error("identical entries must render identically")
	}
}

func TestEscaping(t *testing.T) {
	e := sampleEntry()
	e.Spec = `weird|spec with \back\slash` + "\nnewline"
	line := e.Line()
	if strings.Count(line, "\n") != 0 {
		t.Fatal("newline leaked into line")
	}
	got, err := ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec != e.Spec {
		t.Errorf("spec = %q, want %q", got.Spec, e.Spec)
	}
}

func TestEscapingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		chars := []byte(`ab|\n=:%` + "\n")
		buf := make([]byte, r.Intn(20))
		for i := range buf {
			buf[i] = chars[r.Intn(len(chars))]
		}
		e := sampleEntry()
		e.Spec = string(buf)
		got, err := ParseLine(e.Line())
		if err != nil {
			return false
		}
		return got.Spec == e.Spec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"nokeyvalue",
		"ts=notatime|benchmark=x",
		"benchmark=x|job=NaN",
		"benchmark=x|fom:y=abc",
		"ts=2023-07-07T10:02:11Z|system=a", // no benchmark
	} {
		if _, err := ParseLine(bad); err == nil {
			t.Errorf("ParseLine(%q): expected error", bad)
		}
	}
}

func TestAppendAndRead(t *testing.T) {
	root := t.TempDir()
	e1, e2 := sampleEntry(), sampleEntry()
	e2.JobID = 18
	if err := Append(root, "archer2", "hpgmg-fv", e1, e2); err != nil {
		t.Fatal(err)
	}
	// Appending again grows the log (append-only).
	e3 := sampleEntry()
	e3.JobID = 19
	if err := Append(root, "archer2", "hpgmg-fv", e3); err != nil {
		t.Fatal(err)
	}
	entries := readLog(t, filepath.Join(root, "archer2", "hpgmg-fv.log"))
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
	if entries[2].JobID != 19 {
		t.Errorf("order not preserved: %+v", entries[2])
	}
}

func TestReadTreeAssimilatesSystems(t *testing.T) {
	// Principle 6: logs from isolated systems collate in one pass.
	root := t.TempDir()
	for _, sys := range []string{"archer2", "cosma8", "csd3", "isambard-macs"} {
		e := sampleEntry()
		e.System = sys
		if err := Append(root, sys, "hpgmg-fv", e); err != nil {
			t.Fatal(err)
		}
	}
	all, err := ReadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("assimilated %d entries, want 4", len(all))
	}
	systems := map[string]bool{}
	for _, e := range all {
		systems[e.System] = true
	}
	if len(systems) != 4 {
		t.Errorf("systems = %v", systems)
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")
	content := "# perflog for x\n\n" + sampleEntry().Line() + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if entries := readLog(t, path); len(entries) != 1 {
		t.Errorf("entries = %d", len(entries))
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, err := ReadTree(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing tree accepted")
	}
}

// TestScanSkipsBadLine: a line that does not parse costs that line
// alone. Scan serves the whole lines around it, consumes the whole text,
// and names the bad line by its offset and length (newline included)
// from where the reader started in the file.
func TestScanSkipsBadLine(t *testing.T) {
	good := sampleEntry().Line() + "\n"
	const junk = "garbage line\n"
	content := good + junk + good
	const at = 1000 // where the reader starts in the file
	lines, err := Scan(strings.NewReader(content), 0, "x.log", at)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines.Entries) != 2 || lines.Bytes != int64(len(content)) {
		t.Fatalf("%d entries, %d bytes; want 2 entries, %d bytes", len(lines.Entries), lines.Bytes, len(content))
	}
	want := BadLine{File: "x.log", Offset: at + int64(len(good)), Length: len(junk), Error: `perflog: malformed field "garbage line"`}
	if len(lines.Bad) != 1 || lines.Bad[0] != want {
		t.Fatalf("bad lines %+v, want one %+v", lines.Bad, want)
	}
}

func TestAppendConcurrentWritersNeverInterleave(t *testing.T) {
	// Many goroutines append batches to the same file through separate
	// O_APPEND descriptors, as concurrent benchctl processes or benchd
	// workers would. Every line must parse back intact: a writer that
	// issues more than one syscall per batch can interleave mid-line.
	root := t.TempDir()
	const writers = 16
	const batches = 8
	// A long extra value makes each line big enough that split writes
	// would show up as corruption.
	pad := strings.Repeat("x", 2048)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				e := sampleEntry()
				e.JobID = w*1000 + b
				e.Extra["pad"] = pad
				if err := Append(root, "archer2", "hpgmg-fv", e, e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	entries := readLog(t, filepath.Join(root, "archer2", "hpgmg-fv.log"))
	if len(entries) != writers*batches*2 {
		t.Errorf("entries = %d, want %d", len(entries), writers*batches*2)
	}
	for _, e := range entries {
		if e.Extra["pad"] != pad {
			t.Fatal("padding mangled")
		}
	}
}

// Append must not acknowledge an entry until it is synced to stable
// storage: a fault injected at the sync step (the crash-mid-run case)
// must surface as an error, and the perflog.open point must gate the
// write entirely.
func TestAppendSurfacesSyncFault(t *testing.T) {
	root := t.TempDir()
	if err := faultinject.Load(1, []faultinject.Rule{
		{Point: "perflog.sync", Kind: faultinject.KindError, Times: 1, Msg: "fsync lost power"},
	}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	err := Append(root, "archer2", "hpgmg-fv", sampleEntry())
	if err == nil {
		t.Fatal("Append acknowledged an entry whose sync failed")
	}
	if !faultinject.Is(err) {
		t.Fatalf("sync failure not surfaced as a typed fault: %v", err)
	}
	if !strings.Contains(err.Error(), "fsync lost power") {
		t.Fatalf("fault message lost: %v", err)
	}

	// The schedule is exhausted: the next append lands and is readable.
	if err := Append(root, "archer2", "hpgmg-fv", sampleEntry()); err != nil {
		t.Fatal(err)
	}
	entries := readLog(t, filepath.Join(root, "archer2", "hpgmg-fv.log"))
	// Injected sync faults fire before the write, so the faulted append
	// left nothing behind: exactly the acknowledged entry is present.
	if len(entries) != 1 {
		t.Fatalf("log holds %d entries after one faulted and one acknowledged append, want 1", len(entries))
	}
}

func TestAppendSurfacesOpenFault(t *testing.T) {
	root := t.TempDir()
	if err := faultinject.Load(1, []faultinject.Rule{
		{Point: "perflog.open", Kind: faultinject.KindError, Times: 1},
	}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	if err := Append(root, "archer2", "hpgmg-fv", sampleEntry()); !faultinject.Is(err) {
		t.Fatalf("open fault not surfaced: %v", err)
	}
	// Nothing may have been written: the fault fired before the open.
	if _, err := os.Stat(filepath.Join(root, "archer2", "hpgmg-fv.log")); !os.IsNotExist(err) {
		t.Fatalf("log file exists after open fault (stat err %v)", err)
	}
}

// TestAppendFiresWrittenPoint: the one-shot path runs the Writer's
// commit routine, so "perflog.written" fires between its write and its
// fsync — the bytes have landed, and the append still reports failure.
func TestAppendFiresWrittenPoint(t *testing.T) {
	root := t.TempDir()
	if err := faultinject.Load(1, []faultinject.Rule{
		{Point: "perflog.written", Kind: faultinject.KindError, Times: 1},
	}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	if err := Append(root, "archer2", "hpgmg-fv", sampleEntry()); !faultinject.Is(err) {
		t.Fatalf("written fault not surfaced: %v", err)
	}
	entries := readLog(t, filepath.Join(root, "archer2", "hpgmg-fv.log"))
	if len(entries) != 1 {
		t.Fatalf("log holds %d entries after a fault between write and fsync, want the 1 written", len(entries))
	}
}

// TestAppendTerminatesTornTail: a writer that died mid-append leaves the
// file ending in half a line. The next append, on either path, must
// land as a line of its own, byte-identical to its Line(), after the
// fragment terminated with "|\n" — not glued onto the fragment, where
// "…|job" + "ts=…" would read back as an invented "jobts" extra. The
// '|' gives the fragment an empty last field, so it never parses
// wherever the cut fell; readers skip it as a bad line.
func TestAppendTerminatesTornTail(t *testing.T) {
	paths := []struct {
		name   string
		append func(root string, e *Entry) error
	}{
		{"Append", func(root string, e *Entry) error {
			return Append(root, "archer2", "hpgmg-fv", e)
		}},
		{"Writer", func(root string, e *Entry) error {
			w := NewWriter(root, WriterOptions{})
			err := w.Append("archer2", "hpgmg-fv", e)
			if cerr := w.Close(); err == nil {
				err = cerr
			}
			return err
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			root := t.TempDir()
			first := sampleEntry()
			if err := Append(root, "archer2", "hpgmg-fv", first); err != nil {
				t.Fatal(err)
			}
			line := first.Line()
			fragment := line[:strings.Index(line, "|job=")+len("|job")]
			path := filepath.Join(root, "archer2", "hpgmg-fv.log")
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(fragment); err != nil {
				t.Fatal(err)
			}
			f.Close()

			next := sampleEntry()
			next.JobID = 99
			if err := p.append(root, next); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := line + "\n" + fragment + "|\n" + next.Line() + "\n"
			if string(data) != want {
				t.Fatalf("file after torn tail + append:\n%s\nwant:\n%s", data, want)
			}
		})
	}
}
