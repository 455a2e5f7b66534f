// Package perfstore is the storage layer over a perflog tree: a
// concurrent, sharded in-memory index with incremental (checkpointed)
// ingest, a small query engine, and a regression evaluator. It is the
// continuous-benchmarking piece the paper's conclusion calls for —
// perflogs "generated on isolated systems" are assimilated once, kept
// hot, and served to many readers (the perfplot CLI and the benchd
// daemon share this one query path) instead of being re-parsed from
// flat files on every invocation.
//
// Ingest is append-only and keyed on (system, benchmark), matching the
// <root>/<system>/<benchmark>.log layout perflog.Append writes. Each
// file carries a byte-offset checkpoint: a re-sync seeks to the
// checkpoint and parses only bytes appended since, so re-ingesting an
// unchanged tree parses zero bytes.
package perfstore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/perflog"
	"repro/internal/telemetry"
)

// Ingest metrics: how much work the incremental sync is doing. A warm
// store scanning an unchanged tree grows files_scanned but neither
// bytes nor entries — the checkpoint test's "zero parsed bytes"
// invariant, observable from /metrics.
var (
	metricIngestBytes = telemetry.DefaultRegistry.Counter(
		"perfstore_ingest_bytes_total",
		"Perflog bytes parsed by incremental ingest.").With()
	metricIngestEntries = telemetry.DefaultRegistry.Counter(
		"perfstore_ingest_entries_total",
		"Perflog entries added to the store by ingest.").With()
	metricIngestFiles = telemetry.DefaultRegistry.Counter(
		"perfstore_ingest_files_scanned_total",
		"Perflog files examined by ingest (including no-op checkpoint hits).").With()
	metricCommitGaps = telemetry.DefaultRegistry.Counter(
		"perfstore_commit_gaps_total",
		"Group commits preceded by out-of-band lines, parsed before the commit was indexed.").With()
	metricBadLines = telemetry.DefaultRegistry.Counter(
		"perfstore_bad_lines_total",
		"Complete perflog lines that did not parse, skipped and quarantined by ingest.").With()
	// Query-path metrics: which plans the legs of each Select, Aggregate
	// and Regressions took (a query whose legs split counts once under
	// each), and how many rows those legs read. The linear reference scan
	// is test/bench-only and has no series here.
	metricQueries = func() (c [planCount]*telemetry.Counter) {
		vec := telemetry.DefaultRegistry.Counter(
			"perfstore_query_total",
			"Queries served, by the plan their legs took.",
			"path")
		c[planTime], c[planWindow], c[planPostings] = vec.With("time"), vec.With("window"), vec.With("postings")
		return c
	}()
	metricRowsVisited = telemetry.DefaultRegistry.Counter(
		"perfstore_query_rows_visited_total",
		"Rows read by query legs: window rows walked plus rarest posting lists driven.").With()
)

// shardCount fixes the number of index shards. Sharding is by system:
// ingest for a system touches one shard's lock, so ingest on one system
// never blocks reads on another, and queries fan out across shards on a
// bounded worker pool.
const shardCount = 16

// checkpoint is the incremental-ingest state of one perflog file.
type checkpoint struct {
	offset int64 // bytes consumed through the last complete line
}

// quarantineKeep bounds the bad lines a store remembers: the newest
// ones, enough to find a corrupt file; the total is counted without
// bound.
const quarantineKeep = 16

// Stats counts ingest work and reports the storage-tier shape; the
// checkpoint tests assert a no-op re-sync parses zero bytes, the boot
// tests assert a sealed store restarts with BytesParsed == 0.
type Stats struct {
	FilesScanned int
	BytesParsed  int64
	EntriesAdded int
	Entries      int
	Systems      int
	// Tier breakdown: Entries == HeadEntries + SealedEntries.
	HeadEntries         int
	SealedEntries       int
	SealedSegments      int
	ManifestGeneration  uint64
	SegmentLoadFailures int
	// HeadResidentBytes and SealedResidentBytes are what the head shards
	// and the loaded sealed segments keep in memory: their columns,
	// posting lists and (head) time order, by one accounting (view.size).
	HeadResidentBytes   int64
	SealedResidentBytes int64
	// BadLines counts the lines ingest has quarantined; Quarantined holds
	// the newest of them, oldest first.
	BadLines    int
	Quarantined []perflog.BadLine
}

// rsdGate resolves the store's effective variance-gate threshold.
func (s *Store) rsdGate() float64 {
	switch {
	case s.RSDGate > 0:
		return s.RSDGate
	case s.RSDGate < 0:
		return 0 // explicitly disabled
	default:
		return DefaultRSDGate
	}
}

// Store is the concurrent perflog store: a mutable head (the sharded
// in-memory index, fed by checkpointed ingest) plus, when opened with
// OpenTiered, a sealed tier of immutable on-disk segments. Queries fan
// out over both tiers and merge in (time, ingest-seq) order.
type Store struct {
	root    string
	dataDir string // "" = memory-only store (no sealed tier)

	// RSDGate is the run-to-run relative-standard-deviation threshold for
	// the variance gate on aggregates and regression verdicts; 0 selects
	// DefaultRSDGate, negative disables the gate. Set before serving
	// queries (not synchronized against concurrent readers).
	RSDGate float64

	shards [shardCount]shard

	// seq hands out the store-wide ingest sequence that breaks
	// timestamp ties; gen counts index mutations (adds, evictions,
	// seals, compactions) so readers can stamp derived results and
	// detect staleness with one atomic load (the service layer's
	// aggregate cache).
	seq atomic.Uint64
	gen atomic.Uint64

	ckMu  sync.Mutex
	ck    map[string]*checkpoint
	stats struct {
		sync.Mutex
		filesScanned int
		bytesParsed  int64
		entriesAdded int
	}

	// seg is the sealed tier: the live segment handles and the manifest
	// they mirror. Queries hold the read lock across their whole fan so
	// a concurrent Seal (which appends a segment and clears the head
	// under the write lock) is atomic to them — an entry is observed in
	// exactly one tier. Lock order: ckMu → seg → shard.
	seg struct {
		sync.RWMutex
		list []*segment
		man  *manifest
	}
	loadFail struct {
		sync.Mutex
		n    int
		last string
	}
	bad struct {
		sync.Mutex
		n      int
		recent []perflog.BadLine
	}
}

// Open returns a memory-only store over a perflog root directory. No
// ingest happens until Sync (or Append) is called; the directory need
// not exist yet.
func Open(root string) *Store {
	s := &Store{root: root, ck: map[string]*checkpoint{}}
	for i := range s.shards {
		s.shards[i].reset()
	}
	s.seg.man = &manifest{Version: manifestVersion, Watermarks: map[string]int64{}}
	return s
}

// OpenTiered returns a store whose sealed tier lives in dataDir: the
// manifest is read, every named segment's header is validated (zone
// maps become queryable; data blocks stay on disk until a query needs
// them), ingest checkpoints are restored from the sealed watermarks,
// and orphans from crashed seals are swept. Boot cost is O(segment
// headers); the subsequent Sync re-parses only perflog bytes past the
// watermarks. Any validation failure is returned — the caller's
// fallback is Open plus a full Sync, rebuilding everything from the
// text tree (which remains the source of truth).
func OpenTiered(root, dataDir string) (*Store, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("perfstore: %w", err)
	}
	man, err := loadManifest(dataDir)
	if err != nil {
		return nil, err
	}
	s := Open(root)
	s.dataDir = dataDir
	segs := make([]*segment, 0, len(man.Segments))
	for _, info := range man.Segments {
		hdr, err := readSegmentHeader(filepath.Join(dataDir, info.File))
		if err != nil {
			return nil, fmt.Errorf("perfstore: segment %s: %w", info.File, err)
		}
		if hdr.Count != info.Count || hdr.MinSeq != info.MinSeq || hdr.MaxSeq != info.MaxSeq {
			return nil, fmt.Errorf("perfstore: segment %s disagrees with manifest", info.File)
		}
		segs = append(segs, &segment{dir: dataDir, info: info})
	}
	s.seg.man = man
	s.seg.list = segs
	// Restart the ingest sequence past everything sealed, so (time,
	// seq) ordering stays total across the tiers after a reboot.
	s.seq.Store(man.MaxSeq)
	for rel, off := range man.Watermarks {
		s.ck[s.absSource(rel)] = &checkpoint{offset: off}
	}
	cleanOrphans(dataDir, man)
	return s, nil
}

// DataDir returns the sealed tier's directory ("" for a memory-only
// store).
func (s *Store) DataDir() string { return s.dataDir }

// noteLoadFailure records a segment whose data block could not be
// loaded after retries: the query proceeds without it, and the
// degradation is visible in Stats, /healthz, and /metrics rather than
// silent.
func (s *Store) noteLoadFailure(err error) {
	metricSegLoadFailures.Inc()
	s.loadFail.Lock()
	s.loadFail.n++
	s.loadFail.last = err.Error()
	s.loadFail.Unlock()
}

// Generation returns the index mutation counter. Any result computed
// from the store can be stamped with the generation observed before the
// computation; the stamp still matching means no entry was added or
// evicted since, so the result is current.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// Root returns the perflog tree this store ingests from.
func (s *Store) Root() string { return s.root }

// shardFor maps a system to its shard by FNV-1a over the name.
func (s *Store) shardFor(system string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(system); i++ {
		h = (h ^ uint32(system[i])) * 16777619
	}
	return &s.shards[h%shardCount]
}

// Sync walks the perflog tree and incrementally ingests every .log file.
// A file whose size is its checkpoint has nothing new and is skipped on
// that one stat, never opened — the whole of a sync on an unchanged tree.
//
// Reading and parsing touch no store state, so the remaining files'
// tails are read concurrently on the fanN pool while this goroutine
// commits them in walk order as they become ready. Ingest sequences are
// handed out at commit, so the (time, seq) order of the store — and
// every query answer — is the serial walk's, whatever GOMAXPROCS is. The
// first file whose read fails stops the sync, what it read indexed,
// later files untouched; a line that does not parse is quarantined and
// fails nothing.
func (s *Store) Sync() error {
	var paths []string
	var from []int64 // each path's checkpoint when the walk saw it
	unchanged := 0
	walkErr := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path == s.root && errors.Is(err, fs.ErrNotExist) {
				return nil // nothing logged yet
			}
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".log") {
			return nil
		}
		ck := s.checkpointOffset(path)
		if info, err := d.Info(); err == nil && info.Size() == ck {
			unchanged++
			return nil
		}
		paths, from = append(paths, path), append(from, ck)
		return nil
	})
	s.bumpStats(unchanged, 0, 0)
	if len(paths) == 0 {
		return walkErr
	}
	tails := make([]fileTail, len(paths))
	ready := make([]chan struct{}, len(paths))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var failed atomic.Bool // a commit failed: files not yet read stay unread
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		fanN(len(paths), func(i int) {
			if !failed.Load() {
				tails[i] = readTail(paths[i], from[i], -1)
			}
			close(ready[i])
		})
	}()
	defer readers.Wait()
	for i, path := range paths {
		<-ready[i]
		s.ckMu.Lock()
		err := s.advance(path, &tails[i], -1)
		s.ckMu.Unlock()
		if err != nil {
			failed.Store(true)
			return err
		}
		tails[i] = fileTail{} // indexed: let the slice go
	}
	return walkErr
}

// SyncFile incrementally ingests one perflog file: it parses only the
// complete lines past the file's checkpoint, leaving a line still being
// written for the next sync. A file shorter than its checkpoint was
// rewritten: its entries are evicted and it is re-read from the start.
//
// Injection points: "perfstore.sync" fails a read before any work;
// "perfstore.read" cuts the read stream short, which looks like a
// writer mid-append, so the checkpoint stays before the torn line and
// the next sync re-reads it whole.
func (s *Store) SyncFile(path string) error {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	return s.advance(path, nil, -1)
}

// checkpointOffset returns how far into path the store has ingested.
func (s *Store) checkpointOffset(path string) int64 {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	return s.checkpoint(path).offset
}

// checkpoint returns path's checkpoint, creating it on first sight.
// Callers hold ckMu.
func (s *Store) checkpoint(path string) *checkpoint {
	ck := s.ck[path]
	if ck == nil {
		ck = &checkpoint{}
		s.ck[path] = ck
	}
	return ck
}

// fileTail is what one perflog file holds past a checkpoint: its
// whole lines, as perflog.Scan read them. Reading one touches no store
// state; it enters the store through advance.
type fileTail struct {
	from   int64 // checkpoint offset the read started at
	shrunk bool  // the file is shorter than from: it was rewritten, and the tail is the whole file
	perflog.Lines
	err error // what cut the read short; Lines still covers what was read
}

// readTail reads the complete lines of path past offset from and, unless
// to is negative, before offset to.
func readTail(path string, from, to int64) fileTail {
	t := fileTail{from: from}
	if err := t.read(path, to); err != nil {
		t.err = fmt.Errorf("perfstore: %w", err)
	}
	return t
}

func (t *fileTail) read(path string, to int64) error {
	if err := faultinject.Fire("perfstore.sync"); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	from := t.from
	if to < 0 {
		if to = st.Size(); to < from {
			t.shrunk = true
			from = 0
		}
	}
	if to == from {
		return nil
	}
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return err
	}
	r := faultinject.Reader("perfstore.read", io.LimitReader(f, to-from))
	t.Lines, err = perflog.Scan(r, to-from, path, from)
	return err
}

// advance is the one way a checkpoint moves. It indexes the complete
// lines of path from the checkpoint up to offset to (the end of the file
// when to is negative), moves the checkpoint past them and counts the
// read, quarantining the lines that did not parse. ahead is a tail read
// before ckMu was taken; it is read again when it is nil or another
// ingester moved the checkpoint since. A file shorter than its checkpoint
// was rewritten: its entries are evicted from both tiers and it is read
// from the start. Entries the checkpoint comes to cover are indexed and
// counted even when a read error cut the tail short, and that error is
// returned. Callers hold ckMu, so no byte range is ever indexed or
// quarantined twice.
func (s *Store) advance(path string, ahead *fileTail, to int64) error {
	ck := s.checkpoint(path)
	t := ahead
	if t == nil || t.from != ck.offset {
		read := readTail(path, ck.offset, to)
		t = &read
	}
	if t.shrunk {
		if err := s.evictFile(path); err != nil {
			return err
		}
		ck.offset = 0
	}
	s.addBatch(t.Entries, path)
	s.quarantine(t.Bad)
	ck.offset += t.Bytes
	s.bumpStats(1, t.Bytes, len(t.Entries))
	return t.err
}

// quarantine records lines ingest skipped, keeping the newest
// quarantineKeep.
func (s *Store) quarantine(bad []perflog.BadLine) {
	if len(bad) == 0 {
		return
	}
	metricBadLines.Add(float64(len(bad)))
	s.bad.Lock()
	defer s.bad.Unlock()
	s.bad.n += len(bad)
	s.bad.recent = append(s.bad.recent, bad...)
	if drop := len(s.bad.recent) - quarantineKeep; drop > 0 {
		s.bad.recent = append(s.bad.recent[:0], s.bad.recent[drop:]...)
	}
}

const gapReads = 3 // reads of a gap that keeps coming back short

// IngestCommit ingests one durable group commit from a perflog.Writer.
// The entries come parsed, with their exact byte extent: when the file's
// checkpoint sits at the commit's start — the steady state with the
// Writer as the file's only appender — they are indexed in one shard
// pass and the checkpoint moves past them, zero bytes parsed. Lines an
// out-of-band writer appended between the checkpoint and the commit are
// read first, up to the commit's start and never past it, and indexed
// before the commit's own entries. A gap it cannot read whole keeps its
// good prefix indexed, leaves the commit to the next Sync, and is
// returned; a commit that starts behind the checkpoint changes nothing
// and is refused.
func (s *Store) IngestCommit(c perflog.Commit) error {
	if len(c.Entries) == 0 {
		return nil
	}
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	ck := s.checkpoint(c.Path)
	if ck.offset < c.Offset {
		metricCommitGaps.Inc()
	}
	var err error
	for reads := 0; reads < gapReads && ck.offset < c.Offset; reads++ {
		err = s.advance(c.Path, nil, c.Offset)
	}
	if ck.offset != c.Offset {
		if err == nil {
			err = fmt.Errorf("perfstore: %s: commit starts at %d, store is at %d", c.Path, c.Offset, ck.offset)
		}
		return err
	}
	s.addBatch(c.Entries, c.Path)
	ck.offset += c.Bytes
	s.bumpStats(0, 0, len(c.Entries))
	return nil
}

// AddBatch is IngestCommit reporting success.
func (s *Store) AddBatch(c perflog.Commit) bool { return s.IngestCommit(c) == nil }

// addBatch appends entries as head rows under one shard-lock pass per
// contiguous shard run and bumps the generation once for the whole batch
// — one query-cache invalidation per commit instead of one per entry. A
// perflog file holds a single system, so in practice a batch is one lock
// acquisition. A row records its file as the manifest names it
// (relSource), as a sealed row does.
func (s *Store) addBatch(entries []*perflog.Entry, file string) {
	if len(entries) == 0 {
		return
	}
	file = s.relSource(file)
	for i := 0; i < len(entries); {
		sh := s.shardFor(entries[i].System)
		j := i + 1
		for j < len(entries) && s.shardFor(entries[j].System) == sh {
			j++
		}
		sh.mu.Lock()
		// Taking the run's seqs under the shard lock keeps them above
		// every seq the shard already holds.
		n := uint64(j - i)
		sh.appendLocked(entries[i:j], file, s.seq.Add(n)-n+1)
		sh.mu.Unlock()
		i = j
	}
	s.gen.Add(1)
}

// evictFile removes every entry ingested from one file (truncation
// recovery) from both tiers: each shard is rebuilt without them, and any
// sealed segments holding them are rewritten. Callers hold ckMu.
func (s *Store) evictFile(path string) error {
	removed, rel := 0, s.relSource(path)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		removed += sh.evictLocked(rel)
		sh.mu.Unlock()
	}
	if removed > 0 {
		s.gen.Add(1)
	}
	return s.evictSealed(path)
}

func (s *Store) bumpStats(files int, bytes int64, added int) {
	s.stats.Lock()
	s.stats.filesScanned += files
	s.stats.bytesParsed += bytes
	s.stats.entriesAdded += added
	s.stats.Unlock()
	metricIngestFiles.Add(float64(files))
	metricIngestBytes.Add(float64(bytes))
	metricIngestEntries.Add(float64(added))
}

// Stats reports cumulative ingest counters, current index size, and
// the storage-tier breakdown.
func (s *Store) Stats() Stats {
	s.stats.Lock()
	out := Stats{
		FilesScanned: s.stats.filesScanned,
		BytesParsed:  s.stats.bytesParsed,
		EntriesAdded: s.stats.entriesAdded,
	}
	s.stats.Unlock()
	systems := map[string]bool{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for sys := range sh.systems {
			systems[sys] = true
		}
		out.HeadEntries += sh.rows()
		out.HeadResidentBytes += sh.size()
		sh.mu.RUnlock()
	}
	s.seg.RLock()
	for _, g := range s.seg.list {
		out.SealedEntries += g.info.Count
		out.SealedResidentBytes += g.resident.Load()
		for _, sys := range g.info.Systems {
			systems[sys] = true
		}
	}
	out.SealedSegments = len(s.seg.list)
	out.ManifestGeneration = s.seg.man.Generation
	s.seg.RUnlock()
	out.Entries = out.HeadEntries + out.SealedEntries
	out.Systems = len(systems)
	s.loadFail.Lock()
	out.SegmentLoadFailures = s.loadFail.n
	s.loadFail.Unlock()
	s.bad.Lock()
	out.BadLines = s.bad.n
	out.Quarantined = append([]perflog.BadLine{}, s.bad.recent...)
	s.bad.Unlock()
	return out
}

// PublishMetrics pushes the point-in-time tier gauges (head entries and
// resident bytes, sealed entries, segments and resident bytes, manifest
// generation) into the telemetry registry — called on each /metrics
// scrape so the gauges are fresh without a background sampler.
func (s *Store) PublishMetrics() {
	st := s.Stats()
	metricHeadEntries.Set(float64(st.HeadEntries))
	metricHeadResident.Set(float64(st.HeadResidentBytes))
	metricSealedEntries.Set(float64(st.SealedEntries))
	metricSealedSegments.Set(float64(st.SealedSegments))
	metricSealedResident.Set(float64(st.SealedResidentBytes))
	metricManifestGen.Set(float64(st.ManifestGeneration))
}

// Len returns the number of indexed entries across both tiers.
func (s *Store) Len() int { return s.Stats().Entries }
