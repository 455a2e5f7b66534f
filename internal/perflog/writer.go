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
// are durable (fsynced) or reports why they are not. Append (via
// TreeAppender) and *Writer both satisfy it, so callers like
// core.Runner can take either the one-shot or the group-commit path.
type Appender interface {
	Append(system, benchmark string, entries ...*Entry) error
}

// TreeAppender adapts the one-shot Append function to the Appender
// interface for callers configured with just a root directory (the CLI
// path: one run, one append, no writer to share).
type TreeAppender string

// Append appends through the one-shot open→write→fsync→close path.
func (root TreeAppender) Append(system, benchmark string, entries ...*Entry) error {
	return Append(string(root), system, benchmark, entries...)
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
// Unlike the one-shot Append, the Writer keeps per-(system, benchmark)
// descriptors open across commits, so a loaded daemon pays neither an
// open/close pair nor a dedicated fsync per run.
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
	root string
	opt  WriterOptions

	mu       sync.Mutex
	cur      *writeBatch
	inflight *writeBatch // detached by the committer, verdict pending
	closed   bool

	committing sync.Mutex // held by each commit; BetweenCommits runs under it

	wake   chan struct{} // buffered(1): batch opened, committer has work
	stop   chan struct{}
	exited chan struct{}

	// files caches open descriptors keyed by system\x00benchmark. Only
	// the committer goroutine touches it.
	files    map[string]*os.File
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
		root:   root,
		opt:    opt,
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		exited: make(chan struct{}),
		files:  map[string]*os.File{},
	}
	go w.run()
	return w
}

// Append renders the entries, enqueues them into the open commit batch,
// and blocks until that batch is durable. A nil return means the lines
// are fsynced; any commit error fails every append in the batch.
func (w *Writer) Append(system, benchmark string, entries ...*Entry) error {
	if len(entries) == 0 {
		return nil
	}
	// Render outside the lock: Line() is the expensive part and needs
	// no batch state.
	var buf []byte
	for _, e := range entries {
		buf = append(buf, e.Line()...)
		buf = append(buf, '\n')
	}
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
			for _, f := range w.files {
				if err := f.Close(); err != nil && w.closeErr == nil {
					w.closeErr = fmt.Errorf("perflog: close: %w", err)
				}
			}
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

// commit makes one batch durable: one write and one fsync per target
// file, OnCommit notifications, then metrics. Any error fails the whole
// batch.
func (w *Writer) commit(b *writeBatch) error {
	w.committing.Lock()
	defer w.committing.Unlock()
	// Both injection points fire per commit and before any byte reaches
	// a file, so an injected fault can never acknowledge or strand a
	// partial batch — the property the chaos suite leans on.
	if err := faultinject.Fire("perflog.open"); err != nil {
		metricCommitsError.Inc()
		return fmt.Errorf("perflog: %w", err)
	}
	if err := faultinject.Fire("perflog.sync"); err != nil {
		metricCommitsError.Inc()
		return fmt.Errorf("perflog: %w", err)
	}
	type staged struct {
		g    *commitGroup
		key  string
		path string
		f    *os.File
		off  int64
	}
	stage := make([]staged, 0, len(b.order))
	for _, key := range b.order {
		g := b.groups[key]
		f, path, err := w.file(key, g.system, g.benchmark)
		if err != nil {
			metricCommitsError.Inc()
			return err
		}
		stage = append(stage, staged{g: g, key: key, path: path, f: f})
	}
	for i := range stage {
		st := &stage[i]
		if _, err := st.f.Write(st.g.buf); err != nil {
			w.drop(st.key)
			metricCommitsError.Inc()
			return fmt.Errorf("perflog: %s: %w", st.path, err)
		}
		// The landing offset must come from the descriptor position
		// *after* the write: O_APPEND means an out-of-band appender can
		// slip bytes in ahead of us, and an offset sampled before the
		// write would point into the middle of our own bytes. From the
		// post-write position, a raced commit carries an offset past the
		// store's checkpoint, and the store parses the gap before it.
		pos, err := st.f.Seek(0, io.SeekCurrent)
		if err != nil {
			w.drop(st.key)
			metricCommitsError.Inc()
			return fmt.Errorf("perflog: %s: %w", st.path, err)
		}
		st.off = pos - int64(len(st.g.buf))
	}
	if err := faultinject.Fire("perflog.written"); err != nil {
		metricCommitsError.Inc()
		return fmt.Errorf("perflog: %w", err)
	}
	for i := range stage {
		st := &stage[i]
		t0 := time.Now()
		if err := st.f.Sync(); err != nil {
			w.drop(st.key)
			metricCommitsError.Inc()
			return fmt.Errorf("perflog: sync %s: %w", st.path, err)
		}
		metricFsyncSeconds.Observe(time.Since(t0).Seconds())
	}
	if w.opt.OnCommit != nil {
		for i := range stage {
			st := &stage[i]
			w.opt.OnCommit(Commit{
				Path:      st.path,
				System:    st.g.system,
				Benchmark: st.g.benchmark,
				Entries:   st.g.entries,
				Offset:    st.off,
				Bytes:     int64(len(st.g.buf)),
			})
		}
	}
	metricCommitsOK.Inc()
	metricCommitEntries.Observe(float64(b.entries))
	return nil
}

// file returns the cached descriptor for one (system, benchmark)
// target, opening (and creating) it on first use.
func (w *Writer) file(key, system, benchmark string) (*os.File, string, error) {
	path := filepath.Join(w.root, system, benchmark+".log")
	if f, ok := w.files[key]; ok {
		return f, path, nil
	}
	if err := os.MkdirAll(filepath.Join(w.root, system), 0o755); err != nil {
		return nil, "", fmt.Errorf("perflog: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, "", fmt.Errorf("perflog: %w", err)
	}
	w.files[key] = f
	return f, path, nil
}

// drop closes and forgets a descriptor after a write or sync error:
// fsync failures are sticky on some kernels, so the next commit must
// reopen rather than reuse a descriptor in an unknown state.
func (w *Writer) drop(key string) {
	if f, ok := w.files[key]; ok {
		f.Close()
		delete(w.files, key)
	}
}
