// The segment lifecycle: Seal freezes the head into a new immutable
// segment, Compact merges accumulated small segments into one, and
// evictSealed rewrites segments when a sealed-from perflog file is
// truncated. All three advance the manifest atomically, so every
// crash window resolves to either the old tier state or the new one.
package perfstore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/faultinject"
)

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

	var ents []stored
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for j := range sh.entries {
			st := sh.entries[j]
			if st.dead {
				continue
			}
			st.file = s.relSource(st.file)
			ents = append(ents, st)
		}
		sh.mu.RUnlock()
	}
	if len(ents) == 0 {
		return 0, nil
	}
	slices.SortFunc(ents, func(a, b stored) int { return cmpOrder(a.t, a.seq, b.t, b.seq) })

	s.seg.Lock()
	defer s.seg.Unlock()
	id := s.seg.man.NextSeg + 1
	info, err := writeSegmentFile(s.dataDir, id, ents)
	if err != nil {
		return 0, err
	}
	next := s.seg.man.clone()
	next.NextSeg = id
	next.Generation++
	if maxSeq := s.seq.Load(); maxSeq > next.MaxSeq {
		next.MaxSeq = maxSeq
	}
	for path, ck := range s.ck {
		next.Watermarks[s.relSource(path)] = ck.offset
	}
	next.Segments = append(next.Segments, info)
	if err := saveManifest(s.dataDir, next); err != nil {
		os.Remove(filepath.Join(s.dataDir, info.File))
		return 0, err
	}
	s.seg.man = next
	// The sealed arena is exactly the head we just snapshotted, so the
	// new segment starts resident — same *perflog.Entry pointers, no
	// decode — and only a post-restart load goes through the codec.
	s.seg.list = append(s.seg.list, &segment{
		dir:  s.dataDir,
		info: info,
		data: &view{entries: ents, post: buildPostings(ents)},
	})
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.reset()
		sh.mu.Unlock()
	}
	s.gen.Add(1)
	metricSealsTotal.Inc()
	metricSealSeconds.Observe(time.Since(start).Seconds())
	return len(ents), nil
}

// MaybeSeal seals when the head has grown to at least threshold live
// entries — the maintenance loop's idempotent form.
func (s *Store) MaybeSeal(threshold int) (int, error) {
	if s.dataDir == "" || threshold <= 0 {
		return 0, nil
	}
	head := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		head += sh.live
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
	var ents []stored
	for _, g := range s.seg.list {
		d, err := g.load()
		if err != nil {
			return false, fmt.Errorf("perfstore: compact: %w", err)
		}
		ents = append(ents, d.entries...)
	}
	slices.SortFunc(ents, func(a, b stored) int { return cmpOrder(a.t, a.seq, b.t, b.seq) })
	id := s.seg.man.NextSeg + 1
	info, err := writeSegmentFile(s.dataDir, id, ents)
	if err != nil {
		return false, err
	}
	next := s.seg.man.clone()
	next.NextSeg = id
	next.Generation++
	next.Segments = []SegmentInfo{info}
	if err := saveManifest(s.dataDir, next); err != nil {
		os.Remove(filepath.Join(s.dataDir, info.File))
		return false, err
	}
	old := s.seg.man.Segments
	s.seg.man = next
	s.seg.list = []*segment{{
		dir:  s.dataDir,
		info: info,
		data: &view{entries: ents, post: buildPostings(ents)},
	}}
	for _, oi := range old {
		os.Remove(filepath.Join(s.dataDir, oi.File))
	}
	s.gen.Add(1)
	metricCompactionsTotal.Inc()
	metricCompactSeconds.Observe(time.Since(start).Seconds())
	return true, nil
}

// evictSealed removes every sealed entry ingested from one perflog file
// — the sealed tier's leg of truncation recovery. Each affected segment
// is rewritten without the file's entries (or dropped outright if
// nothing survives), the manifest forgets the file's watermark, and the
// old segment files are deleted only after the new manifest is durable.
// Callers hold ckMu. Returns entries removed.
func (s *Store) evictSealed(path string) (int, error) {
	if s.dataDir == "" {
		return 0, nil
	}
	rel := s.relSource(path)
	s.seg.Lock()
	defer s.seg.Unlock()
	touched := false
	for _, g := range s.seg.list {
		if slices.Contains(g.info.Sources, rel) {
			touched = true
			break
		}
	}
	if _, ok := s.seg.man.Watermarks[rel]; !ok && !touched {
		return 0, nil
	}

	next := s.seg.man.clone()
	delete(next.Watermarks, rel)
	removed := 0
	var newList []*segment
	var newInfos []SegmentInfo
	var obsolete []string
	for _, g := range s.seg.list {
		if !slices.Contains(g.info.Sources, rel) {
			newList = append(newList, g)
			newInfos = append(newInfos, g.info)
			continue
		}
		d, err := g.load()
		if err != nil {
			return 0, fmt.Errorf("perfstore: evict sealed: %w", err)
		}
		kept := make([]stored, 0, len(d.entries))
		for _, st := range d.entries {
			if st.file == rel {
				removed++
				continue
			}
			kept = append(kept, st)
		}
		obsolete = append(obsolete, g.info.File)
		if len(kept) == 0 {
			continue
		}
		next.NextSeg++
		ni, err := writeSegmentFile(s.dataDir, next.NextSeg, kept)
		if err != nil {
			return 0, err
		}
		newList = append(newList, &segment{
			dir:  s.dataDir,
			info: ni,
			data: &view{entries: kept, post: buildPostings(kept)},
		})
		newInfos = append(newInfos, ni)
	}
	next.Generation++
	next.Segments = newInfos
	if err := saveManifest(s.dataDir, next); err != nil {
		return 0, err
	}
	s.seg.man = next
	s.seg.list = newList
	for _, name := range obsolete {
		os.Remove(filepath.Join(s.dataDir, name))
	}
	return removed, nil
}
