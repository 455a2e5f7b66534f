package perfstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/perflog"
)

// writerStore opens a store over a fresh root and returns a
// group-commit Writer whose durable commits feed Store.AddBatch — the
// benchd wiring, reproduced at package scope.
func writerStore(t *testing.T) (*Store, *perflog.Writer) {
	t.Helper()
	s := Open(t.TempDir())
	w := perflog.NewWriter(s.Root(), perflog.WriterOptions{
		OnCommit: func(c perflog.Commit) { s.AddBatch(c) },
	})
	t.Cleanup(func() { w.Close() })
	return s, w
}

// TestAddBatchIngestsCommitWithoutRereading: entries committed through
// the Writer are queryable the moment Append acks, and the store never
// reads the file to get them — zero bytes parsed, and the follow-up
// SyncFile is a checkpoint no-op. A cold store over the same tree sees
// the same entries, proving file and index content agree.
func TestAddBatchIngestsCommitWithoutRereading(t *testing.T) {
	s, w := writerStore(t)
	for i := 1; i <= 3; i++ {
		e := entry("archer2", "hpgmg-fv", i, t0.Add(time.Duration(i)*time.Hour), map[string]float64{"l0": 95})
		if err := w.Append("archer2", "hpgmg-fv", e); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("store holds %d entries after 3 acked appends, want 3", got)
	}
	if st := s.Stats(); st.BytesParsed != 0 {
		t.Fatalf("commit ingest parsed %d bytes, want 0 (entries arrive pre-parsed)", st.BytesParsed)
	}
	// The retried reconciliation sync benchd workers issue must find the
	// checkpoint already past the committed bytes.
	path := filepath.Join(s.Root(), "archer2", "hpgmg-fv.log")
	if err := s.SyncFile(path); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BytesParsed != 0 {
		t.Fatalf("re-sync after commit ingest parsed %d bytes, want 0", st.BytesParsed)
	}
	// Cold boot over the same tree: the file alone reproduces the index.
	cold := Open(s.Root())
	if err := cold.Sync(); err != nil {
		t.Fatal(err)
	}
	if cold.Len() != s.Len() {
		t.Fatalf("cold store holds %d entries, live store %d", cold.Len(), s.Len())
	}
}

// commitAfterOutOfBand appends oob lines out of band, then commits one
// entry through a Writer, and returns that commit unapplied.
func commitAfterOutOfBand(t *testing.T, s *Store, oob ...*perflog.Entry) perflog.Commit {
	t.Helper()
	if len(oob) > 0 {
		if err := perflog.Append(s.Root(), "archer2", "hpgmg-fv", oob...); err != nil {
			t.Fatal(err)
		}
	}
	var commits []perflog.Commit
	w := perflog.NewWriter(s.Root(), perflog.WriterOptions{
		OnCommit: func(c perflog.Commit) { commits = append(commits, c) },
	})
	defer w.Close()
	e := entry("archer2", "hpgmg-fv", 100, t0.Add(time.Hour), map[string]float64{"l0": 95})
	if err := w.Append("archer2", "hpgmg-fv", e); err != nil {
		t.Fatal(err)
	}
	if len(commits) != 1 {
		t.Fatalf("saw %d commits, want 1", len(commits))
	}
	return commits[0]
}

// TestCommitParsesOutOfBandGap: a commit whose start offset is past the
// file checkpoint (out-of-band bytes landed first) reads that gap, and
// only that gap, before it indexes its own entries: both land in file
// order, the parsed bytes are the out-of-band line's, the gap is
// counted, and a following SyncFile finds nothing left to parse.
func TestCommitParsesOutOfBandGap(t *testing.T) {
	s := Open(t.TempDir())
	oob := entry("archer2", "hpgmg-fv", 1, t0, map[string]float64{"l0": 94})
	c := commitAfterOutOfBand(t, s, oob)
	gaps := metricCommitGaps.Value()
	if !s.AddBatch(c) {
		t.Fatal("commit after an out-of-band line was not ingested")
	}
	if got := metricCommitGaps.Value() - gaps; got != 1 {
		t.Fatalf("perfstore_commit_gaps_total moved by %v, want 1", got)
	}
	rows := &s.shardFor("archer2").cols
	if len(rows.t) != 2 || rows.job[0] != 1 || rows.job[1] != 100 || rows.seq[0] >= rows.seq[1] {
		t.Fatalf("rows after gap + commit: jobs %v, seqs %v; want the out-of-band line then the commit", rows.job, rows.seq)
	}
	if st := s.Stats(); st.BytesParsed != int64(len(oob.Line())+1) || st.EntriesAdded != 2 {
		t.Fatalf("stats %+v: want %d bytes parsed (the gap) and 2 entries added", st, len(oob.Line())+1)
	}
	before := s.Stats().BytesParsed
	if err := s.SyncFile(c.Path); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().BytesParsed - before; got != 0 {
		t.Fatalf("SyncFile after the commit parsed %d bytes, want 0", got)
	}
}

// TestCommitBehindCheckpointRefused: a commit that starts behind the
// checkpoint (its bytes are already indexed) is refused and changes
// nothing: no entry, no generation, no stats, no gap.
func TestCommitBehindCheckpointRefused(t *testing.T) {
	s := Open(t.TempDir())
	c := commitAfterOutOfBand(t, s)
	if err := s.IngestCommit(c); err != nil {
		t.Fatal(err)
	}
	gen, st, gaps := s.Generation(), s.Stats(), metricCommitGaps.Value()
	if err := s.IngestCommit(c); err == nil {
		t.Fatal("a commit behind the checkpoint was accepted")
	}
	if s.Generation() != gen || !reflect.DeepEqual(s.Stats(), st) || metricCommitGaps.Value() != gaps {
		t.Fatalf("refused commit changed the store: gen %d→%d, stats %+v→%+v", gen, s.Generation(), st, s.Stats())
	}
	if got := s.checkpointOffset(c.Path); got != c.Offset+c.Bytes {
		t.Fatalf("checkpoint at %d after the refusal, want %d", got, c.Offset+c.Bytes)
	}
}

// TestCommitGapShortReadRetried: a gap read that perfstore.read cuts
// short inside a line indexes the whole lines before the cut, and the
// next read of the gap takes the rest, so the commit still lands.
func TestCommitGapShortReadRetried(t *testing.T) {
	s := Open(t.TempDir())
	oob := []*perflog.Entry{
		entry("archer2", "hpgmg-fv", 1, t0, map[string]float64{"l0": 94}),
		entry("archer2", "hpgmg-fv", 2, t0, map[string]float64{"l0": 93}),
	}
	c := commitAfterOutOfBand(t, s, oob...)
	loadFaults(t, 1, fmt.Sprintf("perfstore.read:short:bytes=%d:times=1", len(oob[0].Line())+10))
	if err := s.IngestCommit(c); err != nil {
		t.Fatalf("commit after a short gap read: %v", err)
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("store holds %d entries, want the 2 out-of-band lines and the commit", got)
	}
	if st := s.Stats(); st.BytesParsed != c.Offset || st.FilesScanned != 2 {
		t.Fatalf("stats %+v: want the %d-byte gap parsed over 2 reads", st, c.Offset)
	}
}

// TestServedTimeIsTheRecordedOne: a run stamped with nanoseconds in a
// local zone is served with the timestamp its perflog line records —
// UTC whole seconds — whether it is read live, after a crash (text
// parse) or after a graceful stop (sealed), and a since between the
// second and the nanoseconds answers alike on all three.
func TestServedTimeIsTheRecordedOne(t *testing.T) {
	root, dataDir := t.TempDir(), t.TempDir()
	live, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	w := perflog.NewWriter(root, perflog.WriterOptions{
		OnCommit: func(c perflog.Commit) { live.IngestCommit(c) },
	})
	stamp := time.Date(2024, 5, 6, 3, 4, 5, 678_000_000, time.FixedZone("", 2*3600))
	if err := w.Append("archer2", "hpgmg-fv", entry("archer2", "hpgmg-fv", 1, stamp, map[string]float64{"l0": 95})); err != nil {
		t.Fatal(err)
	}
	w.Close()
	crashed, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashed.Sync(); err != nil {
		t.Fatal(err)
	}
	since := Query{Since: time.Date(2024, 5, 6, 1, 4, 5, 500_000_000, time.UTC)}
	served := func(s *Store) (time.Time, int) {
		got := s.Select(Query{})
		if len(got) != 1 {
			t.Fatalf("store serves %d entries, want 1", len(got))
		}
		return got[0].Time, len(s.Select(since))
	}
	want := time.Date(2024, 5, 6, 1, 4, 5, 0, time.UTC)
	liveT, liveN := served(live)
	crashT, crashN := served(crashed)
	if _, err := live.Seal(); err != nil {
		t.Fatal(err)
	}
	sealed, err := OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sealed.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := sealed.Stats(); st.SealedEntries != 1 || st.BytesParsed != 0 {
		t.Fatalf("graceful reboot did not serve from the segment: %+v", st)
	}
	sealedT, sealedN := served(sealed)
	for path, got := range map[string]time.Time{"live": liveT, "crash": crashT, "sealed": sealedT} {
		if got != want {
			t.Errorf("%s serves %v, want %v", path, got, want)
		}
	}
	if liveN != 0 || crashN != 0 || sealedN != 0 {
		t.Errorf("since %v matched live %d, crash %d, sealed %d; want 0 on all", since.Since, liveN, crashN, sealedN)
	}
}

// TestAddBatchEmptyCommitAccepted: a zero-entry commit is vacuously
// ingested and moves nothing.
func TestAddBatchEmptyCommitAccepted(t *testing.T) {
	s := Open(t.TempDir())
	if !s.AddBatch(perflog.Commit{}) {
		t.Fatal("empty commit declined")
	}
	if s.Len() != 0 || s.Generation() != 0 {
		t.Fatal("empty commit mutated the store")
	}
}

// TestAddBatchBumpsGenerationOncePerCommit: query caches are
// invalidated once per durable commit, not once per entry — the
// ingest-side half of the group-commit amortization.
func TestAddBatchBumpsGenerationOncePerCommit(t *testing.T) {
	s := Open(t.TempDir())
	var entries []*perflog.Entry
	for i := 1; i <= 8; i++ {
		entries = append(entries, entry("archer2", "hpgmg-fv", i, t0.Add(time.Duration(i)*time.Hour), map[string]float64{"l0": 95}))
	}
	path := filepath.Join(s.Root(), "archer2", "hpgmg-fv.log")
	if err := perflog.Append(s.Root(), "archer2", "hpgmg-fv", entries...); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Generation()
	if !s.AddBatch(perflog.Commit{
		Path: path, System: "archer2", Benchmark: "hpgmg-fv",
		Entries: entries, Offset: 0, Bytes: fi.Size(),
	}) {
		t.Fatal("commit at offset 0 of a fresh checkpoint declined")
	}
	if got := s.Generation() - before; got != 1 {
		t.Fatalf("generation moved %d times for one 8-entry commit, want 1", got)
	}
	if s.Len() != 8 {
		t.Fatalf("store holds %d entries, want 8", s.Len())
	}
}

// TestSyncFileBumpsGenerationOncePerFile: the parse path gets the same
// amortization — one generation bump per synced file, however many
// lines it carries.
func TestSyncFileBumpsGenerationOncePerFile(t *testing.T) {
	s := Open(seedTree(t))
	before := s.Generation()
	if err := s.SyncFile(filepath.Join(s.Root(), "archer2", "hpgmg-fv.log")); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation() - before; got != 1 {
		t.Fatalf("generation moved %d times syncing a 3-line file, want 1", got)
	}
}
