// The manifest is the sealed tier's crash-safe root of trust: one JSON
// file in the data directory naming every live segment (with its zone
// map) and, per perflog source file, the byte offset through which its
// entries have been sealed — the watermark. A boot reads the manifest,
// validates each named segment's header, restores the ingest
// checkpoints from the watermarks, and re-parses only the perflog tail
// past them: O(segment headers) work, not O(perflog bytes).
//
// The manifest is replaced with atomicfile.Write, so a crash at any
// instant leaves either the old manifest or the new one — never a torn
// file. Segment files not named by the manifest (a seal or compaction
// that crashed between writing the segment and swapping the manifest)
// are orphans; Open sweeps them away, and the entries they held are re-ingested from the perflog
// tail the old watermarks still point at. Nothing is lost, nothing is
// duplicated, because the text tree remains the source of truth.
package perfstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/faultinject"
)

const (
	manifestName    = "MANIFEST"
	manifestVersion = 1
)

// manifest is the persisted state of the sealed tier.
type manifest struct {
	Version int `json:"version"`
	// Generation counts manifest swaps (seals, compactions, sealed
	// evictions); /healthz surfaces it so operators can watch the tier
	// advance.
	Generation uint64 `json:"generation"`
	// NextSeg is the last segment id handed out; ids are never reused,
	// so a crashed seal's orphan file can never collide with a live one.
	NextSeg uint64 `json:"next_seg"`
	// MaxSeq is the largest ingest sequence persisted in any segment; a
	// boot starts the store's sequence past it so (time, seq) ordering
	// stays total across restarts.
	MaxSeq uint64 `json:"max_seq"`
	// Watermarks maps perflog files (relative to the store root) to the
	// byte offset through which their lines are sealed.
	Watermarks map[string]int64 `json:"watermarks,omitempty"`
	Segments   []SegmentInfo    `json:"segments,omitempty"`
}

func (m *manifest) clone() *manifest {
	c := *m
	c.Watermarks = make(map[string]int64, len(m.Watermarks))
	for k, v := range m.Watermarks {
		c.Watermarks[k] = v
	}
	c.Segments = append([]SegmentInfo(nil), m.Segments...)
	return &c
}

// saveManifest atomically replaces the manifest. The
// "perfstore.manifest" injection point models the swap failing — a
// crash after segments were written but before they became visible.
func saveManifest(dir string, m *manifest) error {
	if err := faultinject.Fire("perfstore.manifest"); err != nil {
		return fmt.Errorf("perfstore: manifest: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("perfstore: manifest: %w", err)
	}
	if err := atomicfile.Write(filepath.Join(dir, manifestName), data, []byte{'\n'}); err != nil {
		return fmt.Errorf("perfstore: manifest: %w", err)
	}
	return nil
}

// loadManifest reads the manifest; a missing file is an empty tier, not
// an error. The "perfstore.manifestread" injection point models the
// read failing (the degraded-boot path benchd exercises).
func loadManifest(dir string) (*manifest, error) {
	if err := faultinject.Fire("perfstore.manifestread"); err != nil {
		return nil, fmt.Errorf("perfstore: manifest: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return &manifest{Version: manifestVersion, Watermarks: map[string]int64{}}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("perfstore: manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("perfstore: manifest corrupt: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("perfstore: manifest version %d unsupported", m.Version)
	}
	if m.Watermarks == nil {
		m.Watermarks = map[string]int64{}
	}
	return &m, nil
}

// cleanOrphans removes temp files and segment files the manifest does
// not name — the debris of a seal or compaction that crashed before its
// manifest swap. Their entries are still covered by the perflog tail
// past the surviving watermarks, so deleting them loses nothing.
func cleanOrphans(dir string, m *manifest) int {
	live := make(map[string]bool, len(m.Segments))
	for _, info := range m.Segments {
		live[info.File] = true
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, de := range names {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") && !live[name]:
		default:
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			removed++
		}
	}
	return removed
}

// relSource normalizes a perflog path to the store root for use as a
// watermark key or a segment source — stable across boots from
// different working directories.
func (s *Store) relSource(path string) string {
	if rel, err := filepath.Rel(s.root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

// absSource resolves a watermark key back to an openable path.
func (s *Store) absSource(rel string) string {
	if filepath.IsAbs(rel) {
		return rel
	}
	return filepath.Join(s.root, rel)
}
