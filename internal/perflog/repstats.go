package perflog

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// RepStats is the per-FOM repetition aggregate carried in perflog extras.
// It mirrors stats.Summary but lives here so perfstore and perfplot can
// decode entries without importing the stats package.
type RepStats struct {
	N      int     // measured repetitions contributing to the aggregate
	Mean   float64 // mean of measured repetitions
	Stddev float64 // sample standard deviation (n-1)
	RSD    float64 // |stddev/mean|, the variance-gate input
	CILo   float64 // bootstrap CI lower bound on the mean
	CIHi   float64 // bootstrap CI upper bound on the mean
}

// Repetition extras ride in Entry.Extra under "rep:<fom>:<field>" keys so
// the line format — and every pre-repetition consumer — is unchanged. A
// pre-PR line simply has none of these keys and decodes to (zero, false).
const repPrefix = "rep:"

var repFields = [...]string{"n", "mean", "stddev", "rsd", "ci_lo", "ci_hi"}

func repKey(fomName, field string) string {
	return repPrefix + fomName + ":" + field
}

func formatRepFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SetRepStats records the repetition aggregate for one FOM in the entry's
// extras. FOM names containing the extras reserved characters ('=', '|',
// newline) are rejected by Line() downstream exactly as for any extra key.
func (e *Entry) SetRepStats(fomName string, s RepStats) {
	if e.Extra == nil {
		e.Extra = map[string]string{}
	}
	e.Extra[repKey(fomName, "n")] = strconv.Itoa(s.N)
	e.Extra[repKey(fomName, "mean")] = formatRepFloat(s.Mean)
	e.Extra[repKey(fomName, "stddev")] = formatRepFloat(s.Stddev)
	e.Extra[repKey(fomName, "rsd")] = formatRepFloat(s.RSD)
	e.Extra[repKey(fomName, "ci_lo")] = formatRepFloat(s.CILo)
	e.Extra[repKey(fomName, "ci_hi")] = formatRepFloat(s.CIHi)
}

// RepStatsReader decodes one FOM's repetition aggregate from many
// entries — the per-query form of Entry.RepStats. The six extras keys are
// rendered once, so a read on an entry that carries no stats is one map
// probe and no allocation.
type RepStatsReader struct {
	keys [len(repFields)]string
}

// NewRepStatsReader renders the extras keys of fomName's aggregate.
func NewRepStatsReader(fomName string) RepStatsReader {
	var r RepStatsReader
	for i, field := range repFields {
		r.keys[i] = repKey(fomName, field)
	}
	return r
}

// Read decodes the aggregate from e. ok is false when the entry predates
// the repetition protocol (no rep extras) or the extras are malformed —
// callers then fall back to the single-point value.
func (r *RepStatsReader) Read(e *Entry) (RepStats, bool) {
	nStr, present := e.Extra[r.keys[0]]
	if !present {
		return RepStats{}, false
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 1 {
		return RepStats{}, false
	}
	var vals [len(repFields) - 1]float64
	for i, key := range r.keys[1:] {
		raw, present := e.Extra[key]
		if !present {
			return RepStats{}, false
		}
		if vals[i], err = strconv.ParseFloat(raw, 64); err != nil {
			return RepStats{}, false
		}
	}
	return RepStats{N: n, Mean: vals[0], Stddev: vals[1], RSD: vals[2], CILo: vals[3], CIHi: vals[4]}, true
}

// RepStats decodes the repetition aggregate for one FOM: a one-shot
// RepStatsReader.
func (e *Entry) RepStats(fomName string) (RepStats, bool) {
	if len(e.Extra) == 0 {
		return RepStats{}, false
	}
	r := NewRepStatsReader(fomName)
	return r.Read(e)
}

// RepFOMs lists the FOM names that carry repetition extras, in map order.
func (e *Entry) RepFOMs() []string {
	var names []string
	for k := range e.Extra {
		if !strings.HasPrefix(k, repPrefix) || !strings.HasSuffix(k, ":n") {
			continue
		}
		name := strings.TrimSuffix(strings.TrimPrefix(k, repPrefix), ":n")
		if name != "" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// FormatRepStats renders the aggregate for human-facing tables:
// "mean ± stddev [ci_lo, ci_hi] n=N".
func FormatRepStats(s RepStats) string {
	return fmt.Sprintf("%.3f ± %.3f [%.3f, %.3f] n=%d", s.Mean, s.Stddev, s.CILo, s.CIHi, s.N)
}
