package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/faultinject"
)

// History persistence: the whole multi-resolution corpus serialises to
// one JSON file under the daemon's data dir, replaced with
// atomicfile.Write like the segment manifest and schedule registry. A
// crash at any instant leaves either the previous or the new file, both
// complete — never a torn one — so a rebooted daemon serves pre-crash
// metric history from its first request on.

// HistoryFile is the history snapshot's on-disk name under the
// observer's data dir.
const HistoryFile = "metrics-history.json"

// historySnapshot is the persisted form.
type historySnapshot struct {
	Version   int                        `json:"version"`
	SavedAt   time.Time                  `json:"saved_at"`
	IntervalS float64                    `json:"interval_s"`
	Samples   uint64                     `json:"samples"`
	Series    map[string]persistedSeries `json:"series"`
}

type persistedSeries struct {
	Kind  string    `json:"kind"`
	Tiers [][]Point `json:"tiers"`
}

// saveHistory writes the current corpus. The "obs.historywrite"
// injection point fires before any bytes move, so a failed save leaves
// the previous snapshot fully intact.
func (o *Observer) saveHistory() error {
	if o.historyPath == "" {
		return nil
	}
	if err := faultinject.Fire("obs.historywrite"); err != nil {
		metricHistoryFlushErrors.Inc()
		return fmt.Errorf("obs: history: %w", err)
	}
	snap := historySnapshot{
		Version:   1,
		SavedAt:   o.cfg.Now(),
		IntervalS: o.cfg.Interval.Seconds(),
		Samples:   o.samples,
		Series:    map[string]persistedSeries{},
	}
	for key, s := range o.series {
		ps := persistedSeries{Kind: s.kind}
		for _, tier := range s.tiers {
			ps.Tiers = append(ps.Tiers, tier.points())
		}
		// Partial downsampling accumulators are deliberately dropped:
		// after a reboot the first coarse bucket simply covers fewer raw
		// samples. Raw history (tier 0) loses nothing.
		snap.Series[key] = ps
	}
	data, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		metricHistoryFlushErrors.Inc()
		return fmt.Errorf("obs: history: %w", err)
	}
	if err := atomicfile.Write(o.historyPath, data, []byte{'\n'}); err != nil {
		metricHistoryFlushErrors.Inc()
		return fmt.Errorf("obs: history: %w", err)
	}
	metricHistoryFlushes.Inc()
	return nil
}

// LoadHistory parses a persisted history snapshot. Exposed so harnesses
// (the chaos soak) can assert a crash never left a torn file.
func LoadHistory(path string) (map[string][][]Point, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var snap historySnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, 0, fmt.Errorf("obs: history: parse %s: %w", path, err)
	}
	out := make(map[string][][]Point, len(snap.Series))
	for key, ps := range snap.Series {
		out[key] = ps.Tiers
	}
	return out, snap.Samples, nil
}

// loadHistory restores the corpus at boot. A missing file is an empty
// history; a corrupt one is surfaced to the caller (the daemon logs and
// starts fresh rather than refusing to boot — history is an aid, not
// the source of truth).
func (o *Observer) loadHistory() error {
	if o.historyPath == "" {
		return nil
	}
	data, err := os.ReadFile(o.historyPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("obs: history: %w", err)
	}
	var snap historySnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("obs: history: parse %s: %w", o.historyPath, err)
	}
	for key, ps := range snap.Series {
		s := newSeries(ps.Kind, o.cfg.RawCapacity, o.cfg.Tiers)
		for i, pts := range ps.Tiers {
			if i >= len(s.tiers) {
				break
			}
			// Re-push oldest-first; a shrunk capacity keeps the newest
			// points, exactly like live eviction would.
			for _, p := range pts {
				s.tiers[i].push(p)
			}
		}
		o.series[key] = s
	}
	o.samples = snap.Samples
	return nil
}
