package perflog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// Write-path metrics: how well concurrent appenders are amortizing
// fsyncs. A healthy loaded daemon shows perflog_commit_entries well
// above 1 — many acknowledged lines per durable commit.
var (
	metricCommitVec = telemetry.DefaultRegistry.Counter(
		"perflog_commits_total",
		"Group commits by the perflog writer, by outcome.",
		"status")
	metricCommitsOK     = metricCommitVec.With("ok")
	metricCommitsError  = metricCommitVec.With("error")
	metricCommitEntries = telemetry.DefaultRegistry.Histogram(
		"perflog_commit_entries",
		"Entries made durable per group commit.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}).With()
	metricFsyncSeconds = telemetry.DefaultRegistry.Histogram(
		"perflog_fsync_seconds",
		"Wall-clock duration of each group-commit fsync.",
		nil).With()
)

// Appender is the perflog write path: Append blocks until the entries
// are durable (fsynced) or reports why they are not. *Writer satisfies
// it; callers like core.Runner take it so tests can substitute a fake.
type Appender interface {
	Append(system, benchmark string, entries ...*Entry) error
}

// Commit describes one file's slice of a durable group commit: the
// entries that landed, and exactly where their bytes sit in the file.
// Offset is derived from the descriptor position after the O_APPEND
// write — the true landing offset even if an out-of-band append raced
// in first — so Offset+Bytes is the file size after the commit and a
// store holding a checkpoint at Offset can account the whole commit
// without re-reading the file.
type Commit struct {
	Path      string
	System    string
	Benchmark string
	Entries   []*Entry
	Offset    int64
	Bytes     int64
}

// ErrWriterClosed is returned by Append on a closed Writer.
var ErrWriterClosed = errors.New("perflog: writer closed")

// DefaultCommitBytes is the batch size at which a commit flushes
// without waiting out the accumulation window.
const DefaultCommitBytes = 1 << 20

// WriterOptions tune a Writer's group-commit policy.
type WriterOptions struct {
	// MaxDelay is the accumulation window: a batch is held open this
	// long after its first entry before committing, letting concurrent
	// appenders share the fsync. 0 commits as soon as the committer is
	// idle — no added latency, with batching still emerging under load
	// because appends arriving during a commit join the next batch.
	MaxDelay time.Duration
	// MaxBytes flushes a batch early once its rendered bytes reach this
	// size (default DefaultCommitBytes).
	MaxBytes int
	// OnCommit, when set, is called from the committer goroutine once
	// per (system, benchmark) file in each batch, after the batch is
	// durable and before its appenders are released. It must not call
	// back into the Writer.
	OnCommit func(Commit)
}

// Writer is the group-commit perflog write path: concurrent appenders
// enqueue rendered lines into the open batch and block; a single
// committer goroutine flushes the batch with one write and one fsync
// per file, then wakes every waiter — WAL group commit, as in LevelDB
// and etcd. Acked ⇒ durable still holds, and an error fails the whole
// batch: no appender is ever acknowledged for bytes that did not reach
// disk, and none is left guessing about a partially applied commit.
//
// The one-shot Append runs the same commit routine on a batch of one;
// unlike it, the Writer keeps per-(system, benchmark) descriptors open
// across commits, so a loaded daemon pays neither an open/close pair
// (with its directory fsyncs) nor a dedicated fsync per run.
//
// The "perflog.open" and "perflog.sync" injection points fire once per
// commit, before any byte is written: a faulted commit acknowledges
// nothing and leaves nothing behind, which is what lets the chaos suite
// inject sync faults against the daemon write path and still prove
// zero lost, duplicated, or torn lines. (A real fsync failure after the
// write carries the same landed-but-unacked caveat as Append; the
// descriptor is dropped so the next commit reopens cleanly.)
// "perflog.written" fires between a commit's write and its fsync.
type Writer struct {
	opt WriterOptions

	mu       sync.Mutex
	cur      *writeBatch
	inflight *writeBatch // detached by the committer, verdict pending
	closed   bool

	committing sync.Mutex // held by each commit; BetweenCommits runs under it

	wake   chan struct{} // buffered(1): batch opened, committer has work
	stop   chan struct{}
	exited chan struct{}

	// files caches the open descriptors. Only the committer goroutine
	// touches it.
	files    logFiles
	closeErr error
}

// writeBatch is one open commit: rendered bytes grouped per target
// file, and the synchronization appenders block on.
type writeBatch struct {
	groups  map[string]*commitGroup
	order   []string // deterministic commit order over groups
	entries int
	bytes   int
	started time.Time

	full     chan struct{} // closed when MaxBytes reached (or Flush)
	fullOnce bool
	done     chan struct{} // closed after the durability verdict lands
	err      error
}

type commitGroup struct {
	system    string
	benchmark string
	buf       []byte
	entries   []*Entry
}

// NewWriter starts a group-commit writer over a perflog root (same
// <root>/<system>/<benchmark>.log layout as Append). Close it to flush
// pending entries and release the cached descriptors.
func NewWriter(root string, opt WriterOptions) *Writer {
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = DefaultCommitBytes
	}
	w := &Writer{
		opt:    opt,
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
		files:  logFiles{root: root, open: map[string]*os.File{}},
	}
	go w.run()
	return w
}

// Append renders the entries, enqueues them into the open commit batch,
// and blocks until that batch is durable. A nil return means the lines
// are fsynced; any commit error fails every append in the batch. Each
// entry's Time is rounded in place to the UTC whole second its line
// records.
func (w *Writer) Append(system, benchmark string, entries ...*Entry) error {
	if len(entries) == 0 {
		return nil
	}
	// Render outside the lock: Line() is the expensive part and needs
	// no batch state.
	buf := render(entries)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrWriterClosed
	}
	b := w.cur
	if b == nil {
		b = &writeBatch{
			groups:  map[string]*commitGroup{},
			started: time.Now(),
			full:    make(chan struct{}),
			done:    make(chan struct{}),
		}
		w.cur = b
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	b.add(system, benchmark, buf, entries)
	if b.bytes >= w.opt.MaxBytes && !b.fullOnce {
		b.fullOnce = true
		close(b.full)
	}
	w.mu.Unlock()
	<-b.done
	return b.err
}

// Flush forces the open batch (if any) to commit without waiting out
// the accumulation window, and blocks until its durability verdict.
// With no open batch but a commit in flight, Flush waits for that
// commit's verdict instead — so a nil return always means everything
// enqueued before the call is durable.
func (w *Writer) Flush() error {
	w.mu.Lock()
	b := w.cur
	if b != nil && !b.fullOnce {
		b.fullOnce = true
		close(b.full)
	}
	if b == nil {
		b = w.inflight
	}
	w.mu.Unlock()
	if b == nil {
		return nil
	}
	<-b.done
	return b.err
}

// Pending reports the entry and byte counts waiting in the open batch.
func (w *Writer) Pending() (entries, bytes int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur == nil {
		return 0, 0
	}
	return w.cur.entries, w.cur.bytes
}

// BetweenCommits runs fn, blocking commits meanwhile, when no commit is
// between its write and the end of its OnCommit calls: fn never sees
// bytes that are not yet durable and handed to OnCommit.
func (w *Writer) BetweenCommits(fn func()) {
	w.committing.Lock()
	defer w.committing.Unlock()
	fn()
}

// Close commits any pending batch, stops the committer, and closes the
// cached descriptors. Appends racing Close either make the final batch
// (and get a real durability verdict) or fail with ErrWriterClosed.
func (w *Writer) Close() error {
	w.mu.Lock()
	already := w.closed
	w.closed = true
	w.mu.Unlock()
	if !already {
		close(w.stop)
	}
	<-w.exited
	return w.closeErr
}

// run is the committer: one goroutine owning the descriptors and the
// commit order, so file writes need no locking at all.
func (w *Writer) run() {
	for {
		select {
		case <-w.wake:
			w.commitNext(false)
		case <-w.stop:
			w.commitNext(true) // final flush: drain without delay
			w.closeErr = w.files.closeAll()
			close(w.exited)
			return
		}
	}
}

// commitNext waits out the accumulation window on the open batch (new
// appends keep joining it meanwhile), detaches it, and commits.
func (w *Writer) commitNext(draining bool) {
	w.mu.Lock()
	b := w.cur
	w.mu.Unlock()
	if b == nil {
		return
	}
	if d := w.opt.MaxDelay; d > 0 && !draining {
		t := time.NewTimer(time.Until(b.started.Add(d)))
		select {
		case <-t.C:
		case <-b.full:
		case <-w.stop:
		}
		t.Stop()
	}
	w.mu.Lock()
	b = w.cur
	w.cur = nil
	w.inflight = b
	w.mu.Unlock()
	if b == nil {
		return
	}
	b.err = w.commit(b)
	// Deliver the verdict before forgetting the in-flight batch: a Flush
	// that finds inflight nil may return nil, which is only sound once
	// done is closed and every waiter can read err.
	close(b.done)
	w.mu.Lock()
	if w.inflight == b {
		w.inflight = nil
	}
	w.mu.Unlock()
}

// commit makes one batch durable through the shared commit routine,
// then hands each file's slice to OnCommit and records metrics. Any
// error fails the whole batch.
func (w *Writer) commit(b *writeBatch) error {
	w.committing.Lock()
	defer w.committing.Unlock()
	commits, err := w.files.commit(b)
	if err != nil {
		metricCommitsError.Inc()
		return err
	}
	if w.opt.OnCommit != nil {
		for _, c := range commits {
			w.opt.OnCommit(c)
		}
	}
	metricCommitsOK.Inc()
	metricCommitEntries.Observe(float64(b.entries))
	return nil
}

// render renders entries as perflog lines, each ending in '\n'. It first
// rounds each entry's Time in place to what its line records, UTC whole
// seconds, so the entries a Commit hands on equal what ParseLine reads
// back and a run is served with one timestamp however it is loaded.
func render(entries []*Entry) []byte {
	var buf []byte
	for _, e := range entries {
		e.Time = e.Time.UTC().Truncate(time.Second)
		buf = append(buf, e.Line()...)
		buf = append(buf, '\n')
	}
	return buf
}

// add appends rendered lines for one (system, benchmark) file to the
// batch.
func (b *writeBatch) add(system, benchmark string, buf []byte, entries []*Entry) {
	key := system + "\x00" + benchmark
	g := b.groups[key]
	if g == nil {
		g = &commitGroup{system: system, benchmark: benchmark}
		b.groups[key] = g
		b.order = append(b.order, key)
	}
	g.buf = append(g.buf, buf...)
	g.entries = append(g.entries, entries...)
	b.entries += len(entries)
	b.bytes += len(buf)
}

// logFiles holds open perflog descriptors under one root, keyed by
// system\x00benchmark: the Writer's cache, or a one-shot Append's
// descriptor until it closes it.
type logFiles struct {
	root string
	open map[string]*os.File
}

// commit is the one commit routine, run by the Writer's committer for
// every batch and by Append for its batch of one: one write and one
// fsync per target file, in batch order. It returns each file's Commit;
// any error fails the whole batch.
func (fs *logFiles) commit(b *writeBatch) ([]Commit, error) {
	// Both injection points fire per commit and before any byte reaches
	// a file, so an injected fault can never acknowledge or strand a
	// partial batch — the property the chaos suite leans on.
	if err := faultinject.Fire("perflog.open"); err != nil {
		return nil, fmt.Errorf("perflog: %w", err)
	}
	if err := faultinject.Fire("perflog.sync"); err != nil {
		return nil, fmt.Errorf("perflog: %w", err)
	}
	files := make([]*os.File, len(b.order))
	commits := make([]Commit, len(b.order))
	for i, key := range b.order {
		g := b.groups[key]
		f, path, err := fs.get(key, g.system, g.benchmark)
		if err != nil {
			return nil, err
		}
		files[i] = f
		commits[i] = Commit{
			Path:      path,
			System:    g.system,
			Benchmark: g.benchmark,
			Entries:   g.entries,
			Bytes:     int64(len(g.buf)),
		}
	}
	for i, key := range b.order {
		c := &commits[i]
		if err := lockFile(files[i], func() error {
			_, err := files[i].Write(b.groups[key].buf)
			return err
		}); err != nil {
			fs.drop(key)
			return nil, fmt.Errorf("perflog: %s: %w", c.Path, err)
		}
		// The landing offset must come from the descriptor position
		// *after* the write: O_APPEND means an out-of-band appender can
		// slip bytes in ahead of us, and an offset sampled before the
		// write would point into the middle of our own bytes. From the
		// post-write position, a raced commit carries an offset past the
		// store's checkpoint, and the store parses the gap before it.
		pos, err := files[i].Seek(0, io.SeekCurrent)
		if err != nil {
			fs.drop(key)
			return nil, fmt.Errorf("perflog: %s: %w", c.Path, err)
		}
		c.Offset = pos - c.Bytes
	}
	if err := faultinject.Fire("perflog.written"); err != nil {
		return nil, fmt.Errorf("perflog: %w", err)
	}
	for i, key := range b.order {
		t0 := time.Now()
		if err := files[i].Sync(); err != nil {
			fs.drop(key)
			return nil, fmt.Errorf("perflog: sync %s: %w", commits[i].Path, err)
		}
		metricFsyncSeconds.Observe(time.Since(t0).Seconds())
	}
	return commits, nil
}

// get returns the open descriptor for one (system, benchmark) target,
// opening it through openLog on first use.
func (fs *logFiles) get(key, system, benchmark string) (*os.File, string, error) {
	if f, ok := fs.open[key]; ok {
		return f, filepath.Join(fs.root, system, benchmark+".log"), nil
	}
	f, path, err := openLog(fs.root, system, benchmark)
	if err != nil {
		return nil, "", err
	}
	fs.open[key] = f
	return f, path, nil
}

// drop closes and forgets a descriptor after a write or sync error:
// fsync failures are sticky on some kernels, so the next commit must
// reopen rather than reuse a descriptor in an unknown state.
func (fs *logFiles) drop(key string) {
	if f, ok := fs.open[key]; ok {
		f.Close()
		delete(fs.open, key)
	}
}

// closeAll closes every open descriptor and reports the first error.
func (fs *logFiles) closeAll() error {
	var first error
	for key, f := range fs.open {
		if err := f.Close(); err != nil && first == nil {
			first = fmt.Errorf("perflog: close: %w", err)
		}
		delete(fs.open, key)
	}
	return first
}
