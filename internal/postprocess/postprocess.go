// Package postprocess turns perflogs into analysis artifacts: DataFrames,
// filtered series, bar charts (text and SVG) and the Figure 2 style
// heatmap; time-series regression checks live in perfstore, which the
// CLI and the daemon share. It is the framework's Principle 6
// layer — "assimilate and post-process the data in a programmable manner
// so as to make extraction and presentation of Figures of Merit
// transparent and error-free" — driven by the same YAML-style plot
// configuration the paper describes.
package postprocess

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/dataframe"
	"repro/internal/perflog"
	"repro/internal/yamlite"
)

// ToFrame converts perflog entries into a DataFrame: one row per entry,
// string columns for the run identity and extras, one float column per
// FOM (named after the FOM), and a <fom>_unit column recording units.
func ToFrame(entries []*perflog.Entry) (*dataframe.Frame, error) {
	n := len(entries)
	timestamps := make([]string, n)
	benchmarks := make([]string, n)
	systems := make([]string, n)
	partitions := make([]string, n)
	environs := make([]string, n)
	specs := make([]string, n)
	results := make([]string, n)
	jobs := make([]float64, n)

	extraCols := map[string][]string{}
	fomCols := map[string][]float64{}
	fomUnits := map[string]string{}
	for _, e := range entries {
		for k := range e.Extra {
			if _, ok := extraCols[k]; !ok {
				extraCols[k] = filled(n)
			}
		}
		for k, v := range e.FOMs {
			if _, ok := fomCols[k]; !ok {
				fomCols[k] = nanSlice(n)
				fomUnits[k] = v.Unit
			}
		}
	}
	for i, e := range entries {
		timestamps[i] = e.Time.UTC().Format(time.RFC3339)
		benchmarks[i] = e.Benchmark
		systems[i] = e.System
		partitions[i] = e.Partition
		environs[i] = e.Environ
		specs[i] = e.Spec
		results[i] = e.Result
		jobs[i] = float64(e.JobID)
		for k, v := range e.Extra {
			extraCols[k][i] = v
		}
		for k, v := range e.FOMs {
			fomCols[k][i] = v.Value
		}
	}
	f := dataframe.New()
	add := func(err error) error {
		if err != nil {
			return fmt.Errorf("postprocess: %w", err)
		}
		return nil
	}
	if err := add(f.AddStringColumn("timestamp", timestamps)); err != nil {
		return nil, err
	}
	if err := add(f.AddStringColumn("benchmark", benchmarks)); err != nil {
		return nil, err
	}
	if err := add(f.AddStringColumn("system", systems)); err != nil {
		return nil, err
	}
	if err := add(f.AddStringColumn("partition", partitions)); err != nil {
		return nil, err
	}
	if err := add(f.AddStringColumn("environ", environs)); err != nil {
		return nil, err
	}
	if err := add(f.AddStringColumn("spec", specs)); err != nil {
		return nil, err
	}
	if err := add(f.AddStringColumn("result", results)); err != nil {
		return nil, err
	}
	if err := add(f.AddFloatColumn("job", jobs)); err != nil {
		return nil, err
	}
	for _, k := range sortedKeys(extraCols) {
		if f.Has(k) {
			continue
		}
		if err := add(f.AddStringColumn(k, extraCols[k])); err != nil {
			return nil, err
		}
	}
	for _, k := range sortedFloatKeys(fomCols) {
		name := k
		if f.Has(name) {
			name = "fom_" + k
		}
		if err := add(f.AddFloatColumn(name, fomCols[k])); err != nil {
			return nil, err
		}
		if unit := fomUnits[k]; unit != "" {
			units := make([]string, n)
			for i := range units {
				units[i] = unit
			}
			if err := add(f.AddStringColumn(name+"_unit", units)); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// LoadFrame assimilates every perflog under root into one frame —
// cross-platform data in a single programmable pass.
func LoadFrame(root string) (*dataframe.Frame, error) {
	entries, err := perflog.ReadTree(root)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("postprocess: no perflog entries under %s", root)
	}
	return ToFrame(entries)
}

func filled(n int) []string { return make([]string, n) }

func nanSlice(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}

func sortedKeys(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedFloatKeys(m map[string][]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- Plot configuration -----------------------------------------------------

// Filter is one row predicate from the plot config.
type Filter struct {
	Column string
	Op     string // ==, !=, <, <=, >, >= (numeric); == / != (string)
	Value  string
}

// PlotConfig drives filtering and plotting, mirroring the framework's
// YAML configuration (§2.4).
type PlotConfig struct {
	Title   string
	X       string // category column
	Y       string // value column (float)
	Series  string // optional series column
	Filters []Filter
	SortAsc bool
}

// ParsePlotConfig reads a config document:
//
//	title: BabelStream Triad
//	x: system
//	y: triad_mbps
//	series: environ
//	sort: ascending
//	filters:
//	  - column: result
//	    op: ==
//	    value: pass
func ParsePlotConfig(text string) (*PlotConfig, error) {
	doc, err := yamlite.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("postprocess: %w", err)
	}
	m, err := yamlite.Map(doc)
	if err != nil {
		return nil, fmt.Errorf("postprocess: plot config must be a mapping: %w", err)
	}
	cfg := &PlotConfig{}
	for _, key := range yamlite.Keys(m) {
		v := m[key]
		switch key {
		case "title":
			cfg.Title, err = yamlite.Str(v)
		case "x":
			cfg.X, err = yamlite.Str(v)
		case "y":
			cfg.Y, err = yamlite.Str(v)
		case "series":
			cfg.Series, err = yamlite.Str(v)
		case "sort":
			var s string
			s, err = yamlite.Str(v)
			cfg.SortAsc = s == "ascending"
		case "filters":
			err = parseFilters(cfg, v)
		default:
			return nil, fmt.Errorf("postprocess: unknown plot config key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("postprocess: key %q: %w", key, err)
		}
	}
	if cfg.X == "" || cfg.Y == "" {
		return nil, fmt.Errorf("postprocess: plot config needs both 'x' and 'y'")
	}
	return cfg, nil
}

func parseFilters(cfg *PlotConfig, v yamlite.Value) error {
	seq, err := yamlite.Seq(v)
	if err != nil {
		return err
	}
	for _, item := range seq {
		m, err := yamlite.Map(item)
		if err != nil {
			return err
		}
		col, err := yamlite.Str(m["column"])
		if err != nil {
			return fmt.Errorf("filter needs 'column': %w", err)
		}
		op, err := yamlite.Str(m["op"])
		if err != nil {
			return fmt.Errorf("filter needs 'op': %w", err)
		}
		val, err := yamlite.Str(m["value"])
		if err != nil {
			return fmt.Errorf("filter needs 'value': %w", err)
		}
		cfg.Filters = append(cfg.Filters, Filter{Column: col, Op: op, Value: val})
	}
	return nil
}

// Apply filters and sorts the frame per the config, returning the frame
// ready for plotting.
func (cfg *PlotConfig) Apply(f *dataframe.Frame) (*dataframe.Frame, error) {
	cur := f
	for _, flt := range cfg.Filters {
		col, err := cur.Col(flt.Column)
		if err != nil {
			return nil, fmt.Errorf("postprocess: filter: %w", err)
		}
		if col.Kind() == dataframe.Float {
			var num float64
			if _, err := fmt.Sscanf(flt.Value, "%g", &num); err != nil {
				return nil, fmt.Errorf("postprocess: filter value %q is not numeric for column %q", flt.Value, flt.Column)
			}
			cur, err = cur.FilterNum(flt.Column, dataframe.CmpOp(flt.Op), num)
			if err != nil {
				return nil, fmt.Errorf("postprocess: %w", err)
			}
			continue
		}
		switch flt.Op {
		case "==":
			next, err := cur.FilterEq(flt.Column, flt.Value)
			if err != nil {
				return nil, err
			}
			cur = next
		case "!=":
			c, _ := cur.Col(flt.Column)
			cur = cur.Filter(func(r int) bool { return c.Str(r) != flt.Value })
		default:
			return nil, fmt.Errorf("postprocess: string column %q supports == and != only", flt.Column)
		}
	}
	if _, err := cur.Col(cfg.Y); err != nil {
		return nil, fmt.Errorf("postprocess: %w", err)
	}
	sorted, err := cur.Sort(cfg.X, cfg.SortAsc)
	if err != nil {
		return nil, err
	}
	return sorted, nil
}

// trimLabel shortens long labels for chart rendering.
func trimLabel(s string, width int) string {
	if len(s) <= width {
		return s
	}
	if width <= 1 {
		return s[:width]
	}
	return s[:width-1] + "…"
}
