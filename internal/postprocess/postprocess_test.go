package postprocess

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dataframe"
	"repro/internal/fom"
	"repro/internal/perflog"
)

func entry(sys string, job int, ts time.Time, foms map[string]float64) *perflog.Entry {
	e := &perflog.Entry{
		Time:      ts,
		Benchmark: "hpgmg-fv",
		System:    sys,
		Partition: "compute",
		Environ:   "gcc",
		Spec:      "hpgmg%gcc",
		JobID:     job,
		Result:    "pass",
		FOMs:      map[string]fom.Value{},
		Extra:     map[string]string{"num_tasks": "8"},
	}
	for k, v := range foms {
		e.FOMs[k] = fom.Value{Name: k, Value: v, Unit: "MDOF/s"}
	}
	return e
}

func table4Entries() []*perflog.Entry {
	t0 := time.Date(2023, 7, 7, 10, 0, 0, 0, time.UTC)
	return []*perflog.Entry{
		entry("archer2", 1, t0, map[string]float64{"l0": 95.36, "l1": 83.43, "l2": 62.18}),
		entry("cosma8", 2, t0, map[string]float64{"l0": 81.67, "l1": 72.96, "l2": 75.09}),
		entry("csd3", 3, t0, map[string]float64{"l0": 126.10, "l1": 94.39, "l2": 49.40}),
		entry("isambard", 4, t0, map[string]float64{"l0": 30.59, "l1": 25.55, "l2": 17.55}),
	}
}

// floatAt returns cell (row, col) of a float column.
func floatAt(t *testing.T, f *dataframe.Frame, col string, row int) float64 {
	t.Helper()
	c, err := f.Col(col)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind() != dataframe.Float {
		t.Fatalf("column %q is %s, not float", col, c.Kind())
	}
	return c.Float(row)
}

func TestToFrame(t *testing.T) {
	f, err := ToFrame(table4Entries())
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 4 {
		t.Fatalf("rows = %d", f.NumRows())
	}
	for _, col := range []string{"timestamp", "benchmark", "system", "result", "num_tasks", "l0", "l1", "l2", "job"} {
		if !f.Has(col) {
			t.Errorf("missing column %q (have %v)", col, f.Columns())
		}
	}
	if v := floatAt(t, f, "l0", 2); v != 126.10 {
		t.Errorf("l0[2] = %v", v)
	}
	s, _ := f.Str("system", 3)
	if s != "isambard" {
		t.Errorf("system[3] = %s", s)
	}
}

func TestToFrameSparseFOMs(t *testing.T) {
	t0 := time.Now()
	entries := []*perflog.Entry{
		entry("a", 1, t0, map[string]float64{"l0": 1}),
		entry("b", 2, t0, map[string]float64{"gflops": 24}),
	}
	f, err := ToFrame(entries)
	if err != nil {
		t.Fatal(err)
	}
	// Missing FOMs are NaN.
	if v := floatAt(t, f, "gflops", 0); !math.IsNaN(v) {
		t.Errorf("gflops[0] = %g, want NaN", v)
	}
	if v := floatAt(t, f, "l0", 1); !math.IsNaN(v) {
		t.Errorf("l0[1] = %g, want NaN", v)
	}
}

func TestParsePlotConfig(t *testing.T) {
	text := `
title: HPGMG l0 by system
x: system
y: l0
sort: ascending
filters:
  - column: result
    op: ==
    value: pass
`
	cfg, err := ParsePlotConfig(text)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Title == "" || cfg.X != "system" || cfg.Y != "l0" || !cfg.SortAsc {
		t.Errorf("cfg = %+v", cfg)
	}
	if len(cfg.Filters) != 1 || cfg.Filters[0].Column != "result" {
		t.Errorf("filters = %+v", cfg.Filters)
	}
}

func TestParsePlotConfigErrors(t *testing.T) {
	for _, bad := range []string{
		"title: x\n",                            // missing x/y
		"x: a\ny: b\nwhat: 1\n",                 // unknown key
		"x: a\ny: b\nfilters:\n  - column: c\n", // incomplete filter
	} {
		if _, err := ParsePlotConfig(bad); err == nil {
			t.Errorf("ParsePlotConfig(%q): expected error", bad)
		}
	}
}

func TestBarChart(t *testing.T) {
	f, _ := ToFrame(table4Entries())
	cfg := &PlotConfig{Title: "HPGMG l0", X: "system", Y: "l0", SortAsc: true}
	chart, err := BarChart(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"HPGMG l0", "archer2", "csd3", "126.1", "█"} {
		if !strings.Contains(chart, want) {
			t.Errorf("chart missing %q:\n%s", want, chart)
		}
	}
	// The largest value should have the longest bar.
	lines := strings.Split(chart, "\n")
	var csd3Bars, isambardBars int
	for _, l := range lines {
		n := strings.Count(l, "█")
		if strings.Contains(l, "csd3") {
			csd3Bars = n
		}
		if strings.Contains(l, "isambard") {
			isambardBars = n
		}
	}
	if csd3Bars <= isambardBars {
		t.Errorf("bar lengths: csd3 %d vs isambard %d", csd3Bars, isambardBars)
	}
}

func TestBarChartFiltering(t *testing.T) {
	entries := table4Entries()
	entries[0].Result = "fail"
	f, _ := ToFrame(entries)
	cfg := &PlotConfig{
		X: "system", Y: "l0",
		Filters: []Filter{{Column: "result", Op: "==", Value: "pass"}},
	}
	chart, err := BarChart(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(chart, "archer2") {
		t.Error("failed run not filtered out")
	}
	// Numeric filter.
	cfg2 := &PlotConfig{
		X: "system", Y: "l0",
		Filters: []Filter{{Column: "l0", Op: ">", Value: "80"}},
	}
	chart2, err := BarChart(f, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(chart2, "isambard") {
		t.Error("numeric filter not applied")
	}
}

func TestBarChartErrors(t *testing.T) {
	f, _ := ToFrame(table4Entries())
	if _, err := BarChart(f, &PlotConfig{X: "system", Y: "nope"}); err == nil {
		t.Error("missing Y column accepted")
	}
	cfg := &PlotConfig{X: "system", Y: "l0", Filters: []Filter{{Column: "system", Op: "==", Value: "none-such"}}}
	if _, err := BarChart(f, cfg); err == nil {
		t.Error("empty result should error")
	}
	cfg2 := &PlotConfig{X: "system", Y: "l0", Filters: []Filter{{Column: "system", Op: "<", Value: "a"}}}
	if _, err := BarChart(f, cfg2); err == nil {
		t.Error("ordering op on string column accepted")
	}
}

func TestBarChartSVG(t *testing.T) {
	f, _ := ToFrame(table4Entries())
	cfg := &PlotConfig{Title: "HPGMG <l0>", X: "system", Y: "l0"}
	svg, err := BarChartSVG(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<svg", "</svg>", "rect", "HPGMG &lt;l0&gt;"} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if strings.Count(svg, "<rect") != 4 {
		t.Errorf("expected 4 bars, got %d", strings.Count(svg, "<rect"))
	}
}

func TestHeatmap(t *testing.T) {
	f := dataframe.New()
	_ = f.AddStringColumn("model", []string{"omp", "omp", "cuda", "cuda"})
	_ = f.AddStringColumn("platform", []string{"cl", "volta", "cl", "volta"})
	_ = f.AddFloatColumn("eff", []float64{0.80, 0.70, math.NaN(), 0.93})
	pt, err := f.Pivot("model", "platform", "eff")
	if err != nil {
		t.Fatal(err)
	}
	hm := Heatmap(pt, "Figure 2")
	for _, want := range []string{"Figure 2", "80.0%", "93.0%", "*"} {
		if !strings.Contains(hm, want) {
			t.Errorf("heatmap missing %q:\n%s", want, hm)
		}
	}
}

func TestLoadFrameFromTree(t *testing.T) {
	root := t.TempDir()
	for _, e := range table4Entries() {
		if err := perflog.Append(root, e.System, e.Benchmark, e); err != nil {
			t.Fatal(err)
		}
	}
	f, err := LoadFrame(root)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 4 {
		t.Errorf("rows = %d", f.NumRows())
	}
	if _, err := LoadFrame(t.TempDir()); err == nil {
		t.Error("empty tree accepted")
	}
}

func TestBarChartWithSeries(t *testing.T) {
	// Grouped bars: one per (x, series) pair; long labels are trimmed.
	entries := []*perflog.Entry{}
	t0 := time.Now()
	for i, env := range []string{"gcc", "oneapi", "an-extremely-long-environment-name-that-needs-trimming"} {
		e := entry("archer2", i+1, t0, map[string]float64{"l0": 90 + float64(i)})
		e.Environ = env
		entries = append(entries, e)
	}
	f, _ := ToFrame(entries)
	cfg := &PlotConfig{X: "system", Y: "l0", Series: "environ"}
	chart, err := BarChart(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "archer2/gcc") || !strings.Contains(chart, "archer2/oneapi") {
		t.Errorf("series labels missing:\n%s", chart)
	}
	if !strings.Contains(chart, "…") {
		t.Errorf("long label not trimmed:\n%s", chart)
	}
	if _, err := BarChart(f, &PlotConfig{X: "system", Y: "l0", Series: "nope"}); err == nil {
		t.Error("missing series column accepted")
	}
}

func TestApplyNumericFilterParsing(t *testing.T) {
	f, _ := ToFrame(table4Entries())
	// A non-numeric value against a float column must error, not match.
	cfg := &PlotConfig{X: "system", Y: "l0",
		Filters: []Filter{{Column: "l0", Op: ">", Value: "not-a-number"}}}
	if _, err := cfg.Apply(f); err == nil {
		t.Error("non-numeric filter value accepted")
	}
	// != on strings.
	cfg2 := &PlotConfig{X: "system", Y: "l0",
		Filters: []Filter{{Column: "system", Op: "!=", Value: "csd3"}}}
	got, err := cfg2.Apply(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 {
		t.Errorf("rows = %d, want 3", got.NumRows())
	}
	// Filter on a missing column.
	cfg3 := &PlotConfig{X: "system", Y: "l0",
		Filters: []Filter{{Column: "ghost", Op: "==", Value: "x"}}}
	if _, err := cfg3.Apply(f); err == nil {
		t.Error("missing filter column accepted")
	}
}

func TestToFrameUnitColumns(t *testing.T) {
	f, err := ToFrame(table4Entries())
	if err != nil {
		t.Fatal(err)
	}
	if !f.Has("l0_unit") {
		t.Fatalf("unit column missing: %v", f.Columns())
	}
	u, _ := f.Str("l0_unit", 0)
	if u != "MDOF/s" {
		t.Errorf("l0 unit = %q", u)
	}
}
