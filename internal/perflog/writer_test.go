package perflog

import (
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// waitPending spins until the writer's open batch holds n entries — the
// appenders are enqueued and blocked on the commit.
func waitPending(t *testing.T, w *Writer, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if got, _ := w.Pending(); got == n {
			return
		}
		if time.Now().After(deadline) {
			got, _ := w.Pending()
			t.Fatalf("pending = %d entries, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriterAppendsDurableAndReadable(t *testing.T) {
	root := t.TempDir()
	w := NewWriter(root, WriterOptions{})
	for i := 0; i < 3; i++ {
		e := sampleEntry()
		e.JobID = i
		if err := w.Append("archer2", "hpgmg-fv", e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append("csd3", "babelstream", sampleEntry()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("tree holds %d entries, want 4", len(entries))
	}
	// The Writer and the one-shot Append must produce byte-identical
	// files for the same entries.
	got, err := os.ReadFile(filepath.Join(root, "csd3", "babelstream.log"))
	if err != nil {
		t.Fatal(err)
	}
	if want := sampleEntry().Line() + "\n"; string(got) != want {
		t.Fatalf("writer rendered %q, want %q", got, want)
	}
}

// TestWriterConcurrentAppendersNoTornLines is the -race group-commit
// stress: many goroutines share one Writer across several target files;
// every acknowledged line must be present, whole, and unique after
// Close.
func TestWriterConcurrentAppendersNoTornLines(t *testing.T) {
	root := t.TempDir()
	w := NewWriter(root, WriterOptions{MaxDelay: time.Millisecond})
	systems := []string{"archer2", "csd3"}
	benchmarks := []string{"hpgmg-fv", "babelstream"}
	// A value long enough that a torn write would split it mid-line.
	pad := ""
	for i := 0; i < 2048; i++ {
		pad += "x"
	}
	const writers, appends = 16, 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				e := sampleEntry()
				e.JobID = g*appends + i
				e.Extra["pad"] = pad
				sys := systems[(g+i)%len(systems)]
				bench := benchmarks[g%len(benchmarks)]
				if err := w.Append(sys, bench, e); err != nil {
					t.Errorf("writer %d append %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadTree(root)
	if err != nil {
		t.Fatalf("tree corrupt after concurrent appends: %v", err)
	}
	if len(entries) != writers*appends {
		t.Fatalf("tree holds %d entries, want %d", len(entries), writers*appends)
	}
	seen := map[int]bool{}
	for _, e := range entries {
		if e.Extra["pad"] != pad {
			t.Fatal("padding mangled: line torn or interleaved")
		}
		if seen[e.JobID] {
			t.Fatalf("job %d appears twice", e.JobID)
		}
		seen[e.JobID] = true
	}
}

// TestWriterGroupsAppendsIntoOneCommit pins the whole point: appenders
// enqueued while a batch is open share a single commit (one fsync),
// visible in perflog_commits_total.
func TestWriterGroupsAppendsIntoOneCommit(t *testing.T) {
	reg := telemetry.DefaultRegistry
	before, _ := reg.Value("perflog_commits_total", "ok")
	root := t.TempDir()
	w := NewWriter(root, WriterOptions{MaxDelay: time.Hour})
	defer w.Close()
	const n = 6
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			e := sampleEntry()
			e.JobID = i
			errs <- w.Append("archer2", "hpgmg-fv", e)
		}(i)
	}
	waitPending(t, w, n)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	after, _ := reg.Value("perflog_commits_total", "ok")
	if got := after - before; got != 1 {
		t.Fatalf("%d appends committed in %g commits, want exactly 1", n, got)
	}
	entries, err := Read(filepath.Join(root, "archer2", "hpgmg-fv.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Fatalf("log holds %d entries, want %d", len(entries), n)
	}
}

// TestWriterSyncFaultFailsWholeBatch: when a commit's fsync faults,
// every appender in the batch sees the failure, nothing lands, and the
// writer recovers on the next commit.
func TestWriterSyncFaultFailsWholeBatch(t *testing.T) {
	root := t.TempDir()
	w := NewWriter(root, WriterOptions{MaxDelay: time.Hour})
	defer w.Close()
	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			e := sampleEntry()
			e.JobID = i
			errs <- w.Append("archer2", "hpgmg-fv", e)
		}(i)
	}
	waitPending(t, w, n)
	if err := faultinject.Load(1, []faultinject.Rule{
		{Point: "perflog.sync", Kind: faultinject.KindError, Times: 1, Msg: "fsync lost power"},
	}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	if err := w.Flush(); err == nil {
		t.Fatal("Flush acknowledged a batch whose sync failed")
	}
	for i := 0; i < n; i++ {
		err := <-errs
		if err == nil {
			t.Fatal("an appender in a failed batch was acknowledged")
		}
		if !faultinject.Is(err) {
			t.Fatalf("batch failure not surfaced as a typed fault: %v", err)
		}
	}
	// The fault fired before any byte was written: nothing landed.
	if _, err := os.Stat(filepath.Join(root, "archer2", "hpgmg-fv.log")); !os.IsNotExist(err) {
		t.Fatalf("log file exists after faulted commit (stat err %v)", err)
	}
	// The schedule is exhausted: the writer recovers and the next batch
	// commits cleanly. (MaxDelay is an hour, so the append must be
	// flushed explicitly — a bare Append would wait out the window.)
	recovered := make(chan error, 1)
	go func() { recovered <- w.Append("archer2", "hpgmg-fv", sampleEntry()) }()
	waitPending(t, w, 1)
	if err := w.Flush(); err != nil {
		t.Fatalf("recovery flush: %v", err)
	}
	if err := <-recovered; err != nil {
		t.Fatal(err)
	}
	entries, err := Read(filepath.Join(root, "archer2", "hpgmg-fv.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("log holds %d entries after recovery, want 1", len(entries))
	}
}

func TestWriterOpenFaultFailsBatch(t *testing.T) {
	root := t.TempDir()
	w := NewWriter(root, WriterOptions{MaxDelay: time.Hour})
	defer w.Close()
	done := make(chan error, 1)
	go func() { done <- w.Append("archer2", "hpgmg-fv", sampleEntry()) }()
	waitPending(t, w, 1)
	if err := faultinject.Load(1, []faultinject.Rule{
		{Point: "perflog.open", Kind: faultinject.KindError, Times: 1},
	}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	w.Flush()
	if err := <-done; !faultinject.Is(err) {
		t.Fatalf("open fault not surfaced: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "archer2")); !os.IsNotExist(err) {
		t.Fatalf("directory created despite open fault (stat err %v)", err)
	}
}

// TestWriterOnCommitReportsExactExtents: each durable commit hands
// OnCommit the file, the parsed entries, and exactly where their bytes
// sit — consecutive commits tile the file with no gap or overlap.
func TestWriterOnCommitReportsExactExtents(t *testing.T) {
	root := t.TempDir()
	var mu sync.Mutex
	var commits []Commit
	w := NewWriter(root, WriterOptions{OnCommit: func(c Commit) {
		mu.Lock()
		commits = append(commits, c)
		mu.Unlock()
	}})
	e1, e2 := sampleEntry(), sampleEntry()
	e2.JobID = 18
	if err := w.Append("archer2", "hpgmg-fv", e1); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("archer2", "hpgmg-fv", e2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(commits) != 2 {
		t.Fatalf("saw %d commits, want 2", len(commits))
	}
	path := filepath.Join(root, "archer2", "hpgmg-fv.log")
	if commits[0].Path != path || commits[1].Path != path {
		t.Fatalf("commit paths = %q, %q, want %q", commits[0].Path, commits[1].Path, path)
	}
	if commits[0].Offset != 0 {
		t.Fatalf("first commit offset = %d, want 0", commits[0].Offset)
	}
	if commits[1].Offset != commits[0].Bytes {
		t.Fatalf("second commit offset = %d, want %d (end of first)", commits[1].Offset, commits[0].Bytes)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != commits[1].Offset+commits[1].Bytes {
		t.Fatalf("file size %d != end of last commit %d", st.Size(), commits[1].Offset+commits[1].Bytes)
	}
	if len(commits[0].Entries) != 1 || commits[0].Entries[0] != e1 {
		t.Fatal("first commit does not carry its entry")
	}
	if commits[0].System != "archer2" || commits[0].Benchmark != "hpgmg-fv" {
		t.Fatalf("commit identity = %s/%s", commits[0].System, commits[0].Benchmark)
	}
}

// TestWriterCloseFlushesPending: Close is a graceful flush — an entry
// still accumulating under a long MaxDelay is committed, not dropped,
// and its appender is acknowledged. Appends after Close are refused.
func TestWriterCloseFlushesPending(t *testing.T) {
	root := t.TempDir()
	w := NewWriter(root, WriterOptions{MaxDelay: time.Hour})
	done := make(chan error, 1)
	go func() { done <- w.Append("archer2", "hpgmg-fv", sampleEntry()) }()
	waitPending(t, w, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("pending append not flushed by Close: %v", err)
	}
	entries, err := Read(filepath.Join(root, "archer2", "hpgmg-fv.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("log holds %d entries, want 1", len(entries))
	}
	if err := w.Append("archer2", "hpgmg-fv", sampleEntry()); err != ErrWriterClosed {
		t.Fatalf("append after Close = %v, want ErrWriterClosed", err)
	}
}

// TestWriterMaxBytesCutsTheWindow: a batch that reaches MaxBytes
// commits immediately even under an hour-long accumulation window.
func TestWriterMaxBytesCutsTheWindow(t *testing.T) {
	root := t.TempDir()
	w := NewWriter(root, WriterOptions{MaxDelay: time.Hour, MaxBytes: 1})
	defer w.Close()
	done := make(chan error, 1)
	go func() { done <- w.Append("archer2", "hpgmg-fv", sampleEntry()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("append blocked: MaxBytes did not cut the accumulation window")
	}
}

// TestWriterManyFilesOneBatch: a single batch spanning several
// (system, benchmark) targets commits each file once with its own
// OnCommit notification.
func TestWriterManyFilesOneBatch(t *testing.T) {
	root := t.TempDir()
	var mu sync.Mutex
	byFile := map[string]int{}
	w := NewWriter(root, WriterOptions{MaxDelay: time.Hour, OnCommit: func(c Commit) {
		mu.Lock()
		byFile[c.System+"/"+c.Benchmark] += len(c.Entries)
		mu.Unlock()
	}})
	defer w.Close()
	const n = 6
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			e := sampleEntry()
			e.JobID = i
			errs <- w.Append("sys"+strconv.Itoa(i%3), "bench", e)
		}(i)
	}
	waitPending(t, w, n)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(byFile) != 3 {
		t.Fatalf("commit notified %d files, want 3: %v", len(byFile), byFile)
	}
	for f, c := range byFile {
		if c != 2 {
			t.Errorf("file %s got %d entries, want 2", f, c)
		}
	}
}

// TestWriterCommitOffsetTrueUnderOOBAppends is the regression for the
// stale-offset race: out-of-band one-shot Appends hammer the same file
// the Writer is committing to, so bytes can land between the Writer's
// descriptor operations and its write. Every reported Commit extent
// [Offset, Offset+Bytes) must still contain exactly that commit's
// rendered lines — an offset sampled before the write would point at
// the out-of-band bytes instead, and a store trusting it would skip
// them and mis-advance its checkpoint into the commit's own bytes.
func TestWriterCommitOffsetTrueUnderOOBAppends(t *testing.T) {
	root := t.TempDir()
	var mu sync.Mutex
	var commits []Commit
	w := NewWriter(root, WriterOptions{OnCommit: func(c Commit) {
		mu.Lock()
		commits = append(commits, c)
		mu.Unlock()
	}})
	const viaWriter, oob = 64, 64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < viaWriter; i++ {
			e := sampleEntry()
			e.JobID = i
			if err := w.Append("archer2", "hpgmg-fv", e); err != nil {
				t.Errorf("writer append %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < oob; i++ {
			e := sampleEntry()
			e.JobID = viaWriter + i
			if err := Append(root, "archer2", "hpgmg-fv", e); err != nil {
				t.Errorf("oob append %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "archer2", "hpgmg-fv.log"))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	committed := 0
	for _, c := range commits {
		committed += len(c.Entries)
		if c.Offset+c.Bytes > int64(len(raw)) {
			t.Fatalf("commit extent [%d,%d) beyond file size %d", c.Offset, c.Offset+c.Bytes, len(raw))
		}
		var want []byte
		for _, e := range c.Entries {
			want = append(want, e.Line()...)
			want = append(want, '\n')
		}
		if got := raw[c.Offset : c.Offset+c.Bytes]; string(got) != string(want) {
			t.Fatalf("commit extent [%d,%d) holds other bytes:\n got %q\nwant %q",
				c.Offset, c.Offset+c.Bytes, got, want)
		}
	}
	if committed != viaWriter {
		t.Fatalf("commits carried %d entries, want %d", committed, viaWriter)
	}
	entries, err := ReadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != viaWriter+oob {
		t.Fatalf("tree holds %d entries, want %d", len(entries), viaWriter+oob)
	}
}

// TestWriterFlushWaitsForInflightCommit: Flush called while the batch
// is already detached and mid-commit (cur is nil, verdict pending) must
// block until that commit's durability verdict instead of returning nil
// early — otherwise a caller could Flush, read the store, and miss
// entries whose fsync had not yet happened.
func TestWriterFlushWaitsForInflightCommit(t *testing.T) {
	root := t.TempDir()
	hold := make(chan struct{})
	entered := make(chan struct{})
	w := NewWriter(root, WriterOptions{OnCommit: func(Commit) {
		close(entered)
		<-hold
	}})
	defer w.Close()
	appendDone := make(chan error, 1)
	go func() { appendDone <- w.Append("archer2", "hpgmg-fv", sampleEntry()) }()
	<-entered // committer is inside the commit: cur nil, verdict pending
	flushDone := make(chan error, 1)
	go func() { flushDone <- w.Flush() }()
	select {
	case err := <-flushDone:
		t.Fatalf("Flush returned %v while a commit was still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(hold)
	if err := <-flushDone; err != nil {
		t.Fatal(err)
	}
	if err := <-appendDone; err != nil {
		t.Fatal(err)
	}
}
