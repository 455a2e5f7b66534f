// The segment lifecycle: Seal freezes the head into a new immutable
// segment, Compact merges accumulated small segments into one, and
// evictSealed rewrites segments when a sealed-from perflog file is
// truncated. All three change the tier through swap, which advances the
// manifest atomically, so every crash window resolves to either the old
// tier state or the new one.
package perfstore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/faultinject"
)

// tierSlot is one place in the sealed tier that swap lays out: a segment
// kept as it is, or rows to write as a new segment.
type tierSlot struct {
	keep *segment
	rows *rowSet
}

// swap is the sealed tier's one state change. It writes each slot's rows
// as a new segment in that slot's place, applies edit to a copy of
// the manifest that names the slots in order, and makes that copy
// durable. Only then does the tier change: the segment list is swapped,
// the files of segments left out are removed and the generation moves.
// On any failure every file it wrote is removed and the tier is as it
// was. Callers hold the segment write lock.
func (s *Store) swap(slots []tierSlot, edit func(next *manifest)) error {
	next := s.seg.man.clone()
	next.Generation++
	next.Segments = next.Segments[:0]
	if edit != nil {
		edit(next)
	}
	list := make([]*segment, 0, len(slots))
	for _, sl := range slots {
		g := sl.keep
		if g == nil {
			next.NextSeg++
			var err error
			if g, err = writeSegment(s.dataDir, next.NextSeg, sl.rows); err != nil {
				s.removeFiles(list, s.seg.list)
				return err
			}
		}
		list = append(list, g)
		next.Segments = append(next.Segments, g.info)
	}
	if err := saveManifest(s.dataDir, next); err != nil {
		s.removeFiles(list, s.seg.list)
		return err
	}
	old := s.seg.list
	s.seg.man, s.seg.list = next, list
	s.removeFiles(old, list)
	s.gen.Add(1)
	return nil
}

// removeFiles deletes the file of every segment in segs that keep does
// not hold.
func (s *Store) removeFiles(segs, keep []*segment) {
	for _, g := range segs {
		if !slices.Contains(keep, g) {
			os.Remove(filepath.Join(s.dataDir, g.info.File))
		}
	}
}

// Seal freezes the entire mutable head into one new sealed segment and
// advances the manifest's watermarks to the current ingest checkpoints,
// then clears the head. Returns the number of entries sealed (0 with
// nothing to do, or when the store has no data directory).
//
// Seal holds the checkpoint lock for its whole duration: SyncFile and
// Append serialize on the same lock, so the watermark snapshot, the
// head snapshot, and the head clear are one atomic cut of the ingest
// stream — an entry is either in the sealed segment and behind the
// watermark, or still in the unsealed perflog tail, never both.
//
// Crash safety: the segment file is written and fsynced before the
// manifest names it. A crash before the manifest swap leaves an orphan
// segment (swept by the next Open) and the old watermarks, so the
// entries are simply re-ingested from the perflog tail — nothing lost,
// nothing duplicated.
func (s *Store) Seal() (int, error) {
	if s.dataDir == "" {
		return 0, nil
	}
	start := time.Now()
	s.ckMu.Lock()
	defer s.ckMu.Unlock()

	// The shards' columns are copied under their read locks; nothing
	// appends to them while Seal holds ckMu.
	rs := &rowSet{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		if sh.rows() > 0 {
			c := sh.cols
			rs.add(&c, sh.byTime, noID)
		}
		sh.mu.RUnlock()
	}
	if len(rs.rows) == 0 {
		return 0, nil
	}
	rs.sort()

	s.seg.Lock()
	defer s.seg.Unlock()
	slots := make([]tierSlot, 0, len(s.seg.list)+1)
	for _, g := range s.seg.list {
		slots = append(slots, tierSlot{keep: g})
	}
	// The new segment starts resident as the block it wrote, decoded
	// (writeSegment), so the reset below lets the head's columns go.
	err := s.swap(append(slots, tierSlot{rows: rs}), func(next *manifest) {
		next.MaxSeq = max(next.MaxSeq, s.seq.Load())
		for path, ck := range s.ck {
			next.Watermarks[s.relSource(path)] = ck.offset
		}
	})
	if err != nil {
		return 0, err
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.reset()
		sh.mu.Unlock()
	}
	metricSealsTotal.Inc()
	metricSealSeconds.Observe(time.Since(start).Seconds())
	return len(rs.rows), nil
}

// MaybeSeal seals when the head has grown to at least threshold
// entries — the maintenance loop's idempotent form.
func (s *Store) MaybeSeal(threshold int) (int, error) {
	if s.dataDir == "" || threshold <= 0 {
		return 0, nil
	}
	head := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		head += sh.rows()
		sh.mu.RUnlock()
	}
	if head < threshold {
		return 0, nil
	}
	return s.Seal()
}

// Compact merges all sealed segments into one when at least maxSegments
// have accumulated, bounding per-query fan-out and per-segment
// dictionary duplication. Returns whether a compaction ran.
//
// Compact takes only the segment lock — ingest and sealing are blocked
// for the manifest swap, but head queries proceed. The merged segment
// is written and fsynced before the manifest drops the old ones, so a
// mid-compaction crash leaves either the old segment set (plus an
// orphan merge file) or the new one — both complete.
func (s *Store) Compact(maxSegments int) (bool, error) {
	if s.dataDir == "" || maxSegments < 2 {
		return false, nil
	}
	start := time.Now()
	s.seg.Lock()
	defer s.seg.Unlock()
	if len(s.seg.list) < maxSegments {
		return false, nil
	}
	if err := faultinject.Fire("perfstore.compact"); err != nil {
		return false, fmt.Errorf("perfstore: compact: %w", err)
	}
	rs := &rowSet{}
	for _, g := range s.seg.list {
		d, err := g.load()
		if err != nil {
			return false, fmt.Errorf("perfstore: compact: %w", err)
		}
		rs.add(&d.cols, nil, noID)
	}
	rs.sort()
	if err := s.swap([]tierSlot{{rows: rs}}, nil); err != nil {
		return false, err
	}
	metricCompactionsTotal.Inc()
	metricCompactSeconds.Observe(time.Since(start).Seconds())
	return true, nil
}

// evictSealed removes every sealed entry ingested from one perflog file
// — the sealed tier's leg of truncation recovery. Each affected segment
// is rewritten in its place without the file's entries (or dropped
// outright if nothing survives), and the manifest forgets the file's
// watermark. Callers hold ckMu.
func (s *Store) evictSealed(path string) error {
	if s.dataDir == "" {
		return nil
	}
	rel := s.relSource(path)
	s.seg.Lock()
	defer s.seg.Unlock()
	_, touched := s.seg.man.Watermarks[rel]
	slots := make([]tierSlot, 0, len(s.seg.list))
	for _, g := range s.seg.list {
		if !slices.Contains(g.info.Sources, rel) {
			slots = append(slots, tierSlot{keep: g})
			continue
		}
		touched = true
		d, err := g.load()
		if err != nil {
			return fmt.Errorf("perfstore: evict sealed: %w", err)
		}
		kept := &rowSet{}
		if kept.add(&d.cols, nil, d.cols.id(rel)); len(kept.rows) > 0 {
			slots = append(slots, tierSlot{rows: kept})
		}
	}
	if !touched {
		return nil
	}
	return s.swap(slots, func(next *manifest) { delete(next.Watermarks, rel) })
}
