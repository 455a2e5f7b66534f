package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/faultinject"
	"repro/internal/telemetry"
)

// The auto-profiling hook: when an alert fires, the capturer snapshots
// the heap and goroutine pprof profiles — the two that explain the
// usual daemon pathologies (leaks, wedged workers) and cost no warm-up
// window — into a bounded on-disk ring. A cooldown rate-limits capture
// so a storm of firing rules cannot turn the profiler itself into the
// overload, and the ring evicts oldest-first so retention is bounded
// regardless of uptime.

var (
	metricProfilesCaptured = telemetry.DefaultRegistry.Counter(
		"obs_profiles_captured_total",
		"pprof snapshots captured by alert firings, by profile kind.",
		"kind")
	metricProfilesSkipped = telemetry.DefaultRegistry.Counter(
		"obs_profiles_skipped_total",
		"Alert firings that did not capture a profile, by reason (cooldown, error).",
		"reason")
)

// profileKinds are the pprof profiles captured per alert firing.
var profileKinds = []string{"heap", "goroutine"}

// ProfileInfo describes one captured artifact, as listed by
// GET /v1/profiles.
type ProfileInfo struct {
	ID      string    `json:"id"`   // e.g. prof-000003-heap
	Kind    string    `json:"kind"` // heap | goroutine
	AlertID string    `json:"alert_id"`
	Metric  string    `json:"metric"`
	Time    time.Time `json:"time"`
	Size    int       `json:"size_bytes"`
}

// profileIndexFile names the capturer's metadata index under its
// directory; it is replaced atomically so a crash mid-capture leaves a
// parseable index whose entries all reference complete artifacts.
const profileIndexFile = "profiles.json"

// capturer owns the profile ring. The Observer's lock serialises
// captures; fetches take the capturer's own snapshot under that lock
// via the Observer.
type capturer struct {
	dir      string // "" = memory-only (no persistence)
	limit    int    // max retained artifacts
	cooldown time.Duration

	infos    []ProfileInfo
	mem      map[string][]byte // memory-mode artifact bytes
	lastCap  time.Time
	captures int // lifetime capture events, for id assignment
}

func newCapturer(dir string, limit int, cooldown time.Duration) (*capturer, error) {
	c := &capturer{dir: dir, limit: limit, cooldown: cooldown, mem: map[string][]byte{}}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: profiles: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, profileIndexFile))
	if errors.Is(err, os.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("obs: profiles: %w", err)
	}
	var infos []ProfileInfo
	if err := json.Unmarshal(data, &infos); err != nil {
		return nil, fmt.Errorf("obs: profiles: parse index: %w", err)
	}
	// Keep only entries whose artifact survived, and resume the id
	// counter past the highest persisted capture.
	for _, in := range infos {
		if _, err := os.Stat(filepath.Join(dir, in.ID+".pprof")); err == nil {
			c.infos = append(c.infos, in)
			var n int
			if _, err := fmt.Sscanf(in.ID, "prof-%d-", &n); err == nil && n > c.captures {
				c.captures = n
			}
		}
	}
	sort.Slice(c.infos, func(i, j int) bool { return c.infos[i].ID < c.infos[j].ID })
	return c, nil
}

// capture snapshots every profile kind for one alert firing. It
// returns the new artifact ids (empty when rate-limited), and an error
// only when every kind failed — a partial capture is still useful.
func (c *capturer) capture(now time.Time, alertID, metric string) ([]string, error) {
	if !c.lastCap.IsZero() && now.Sub(c.lastCap) < c.cooldown {
		metricProfilesSkipped.With("cooldown").Inc()
		return nil, nil
	}
	c.lastCap = now
	c.captures++
	var ids []string
	var errs []error
	for _, kind := range profileKinds {
		id := fmt.Sprintf("prof-%06d-%s", c.captures, kind)
		data, err := c.snapshot(kind)
		if err != nil {
			metricProfilesSkipped.With("error").Inc()
			errs = append(errs, fmt.Errorf("%s: %w", kind, err))
			continue
		}
		if err := c.store(id, data); err != nil {
			metricProfilesSkipped.With("error").Inc()
			errs = append(errs, fmt.Errorf("%s: %w", kind, err))
			continue
		}
		c.infos = append(c.infos, ProfileInfo{
			ID: id, Kind: kind, AlertID: alertID, Metric: metric,
			Time: now, Size: len(data),
		})
		metricProfilesCaptured.With(kind).Inc()
		ids = append(ids, id)
	}
	c.evict()
	if c.dir != "" {
		if err := c.saveIndex(); err != nil {
			errs = append(errs, err)
		}
	}
	if len(ids) == 0 && len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return ids, nil
}

// snapshot renders one pprof profile. The "obs.profilecapture"
// injection point models the capture itself failing (an exhausted disk,
// a wedged runtime) without ever failing the alert that asked for it.
func (c *capturer) snapshot(kind string) ([]byte, error) {
	if err := faultinject.Fire("obs.profilecapture"); err != nil {
		return nil, err
	}
	p := pprof.Lookup(kind)
	if p == nil {
		return nil, fmt.Errorf("obs: no pprof profile %q", kind)
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (c *capturer) store(id string, data []byte) error {
	if c.dir == "" {
		c.mem[id] = data
		return nil
	}
	// A crash, power loss included, never leaves a half-written
	// artifact under a listed id (the index only references durable
	// writes, and the index itself is replaced the same way after).
	return atomicfile.Write(filepath.Join(c.dir, id+".pprof"), data)
}

// evict trims the ring to its capacity, oldest artifacts first.
func (c *capturer) evict() {
	for len(c.infos) > c.limit {
		victim := c.infos[0]
		c.infos = c.infos[1:]
		if c.dir == "" {
			delete(c.mem, victim.ID)
		} else {
			os.Remove(filepath.Join(c.dir, victim.ID+".pprof"))
		}
	}
}

func (c *capturer) saveIndex() error {
	data, err := json.MarshalIndent(c.infos, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.Write(filepath.Join(c.dir, profileIndexFile), data, []byte{'\n'})
}

// list returns the retained artifacts, oldest first.
func (c *capturer) list() []ProfileInfo {
	return append([]ProfileInfo(nil), c.infos...)
}

// get returns one artifact's metadata and bytes.
func (c *capturer) get(id string) (ProfileInfo, []byte, error) {
	for _, in := range c.infos {
		if in.ID != id {
			continue
		}
		if c.dir == "" {
			return in, c.mem[id], nil
		}
		data, err := os.ReadFile(filepath.Join(c.dir, id+".pprof"))
		if err != nil {
			return ProfileInfo{}, nil, err
		}
		return in, data, nil
	}
	return ProfileInfo{}, nil, fmt.Errorf("obs: no profile %q", id)
}
