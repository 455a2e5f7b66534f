package postprocess

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dataframe"
)

// BarChart renders the configured plot as a text bar chart: one bar per
// (x, series) pair, grouped by x, scaled to the maximum value.
func BarChart(f *dataframe.Frame, cfg *PlotConfig) (string, error) {
	data, err := cfg.Apply(f)
	if err != nil {
		return "", err
	}
	if data.NumRows() == 0 {
		return "", fmt.Errorf("postprocess: no rows left after filtering")
	}
	xc, err := data.Col(cfg.X)
	if err != nil {
		return "", err
	}
	yc, err := data.Col(cfg.Y)
	if err != nil {
		return "", err
	}
	var sc *dataframe.Column
	if cfg.Series != "" {
		sc, err = data.Col(cfg.Series)
		if err != nil {
			return "", err
		}
	}

	type bar struct {
		x, series string
		value     float64
	}
	var bars []bar
	maxVal := 0.0
	labelW := 0
	for r := 0; r < data.NumRows(); r++ {
		b := bar{x: xc.Str(r), value: yc.Float(r)}
		if sc != nil {
			b.series = sc.Str(r)
		}
		if math.IsNaN(b.value) {
			continue
		}
		if b.value > maxVal {
			maxVal = b.value
		}
		if w := len(barLabel(b.x, b.series)); w > labelW {
			labelW = w
		}
		bars = append(bars, b)
	}
	if len(bars) == 0 || maxVal <= 0 {
		return "", fmt.Errorf("postprocess: nothing to plot in column %q", cfg.Y)
	}

	const width = 50
	var sb strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&sb, "%s\n%s\n", cfg.Title, strings.Repeat("=", len(cfg.Title)))
	}
	prevX := ""
	for _, b := range bars {
		if b.x != prevX && prevX != "" && sc != nil {
			sb.WriteString("\n")
		}
		prevX = b.x
		n := int(math.Round(b.value / maxVal * width))
		fmt.Fprintf(&sb, "%-*s |%s %g\n", labelW, barLabel(b.x, b.series), strings.Repeat("█", n), round3(b.value))
	}
	return sb.String(), nil
}

func barLabel(x, series string) string {
	if series == "" {
		return trimLabel(x, 32)
	}
	return trimLabel(x+"/"+series, 40)
}

func round3(v float64) float64 {
	return math.Round(v*1000) / 1000
}

// BarChartSVG renders the same plot as a standalone SVG document (the
// framework's Bokeh-equivalent visual output).
func BarChartSVG(f *dataframe.Frame, cfg *PlotConfig) (string, error) {
	data, err := cfg.Apply(f)
	if err != nil {
		return "", err
	}
	xc, _ := data.Col(cfg.X)
	yc, _ := data.Col(cfg.Y)
	var sc *dataframe.Column
	if cfg.Series != "" {
		sc, err = data.Col(cfg.Series)
		if err != nil {
			return "", err
		}
	}
	type bar struct {
		label string
		value float64
	}
	var bars []bar
	maxVal := 0.0
	for r := 0; r < data.NumRows(); r++ {
		v := yc.Float(r)
		if math.IsNaN(v) {
			continue
		}
		label := xc.Str(r)
		if sc != nil {
			label += "/" + sc.Str(r)
		}
		bars = append(bars, bar{label, v})
		if v > maxVal {
			maxVal = v
		}
	}
	if len(bars) == 0 || maxVal <= 0 {
		return "", fmt.Errorf("postprocess: nothing to plot in column %q", cfg.Y)
	}
	const (
		barH   = 22
		gap    = 6
		chartW = 600
		labelW = 220
		topPad = 40
	)
	height := topPad + len(bars)*(barH+gap) + 20
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`+"\n",
		labelW+chartW+80, height)
	fmt.Fprintf(&sb, `<text x="10" y="22" font-size="16">%s</text>`+"\n", xmlEscape(cfg.Title))
	for i, b := range bars {
		y := topPad + i*(barH+gap)
		w := int(b.value / maxVal * chartW)
		fmt.Fprintf(&sb, `<text x="%d" y="%d" text-anchor="end">%s</text>`+"\n", labelW-6, y+barH-6, xmlEscape(trimLabel(b.label, 34)))
		fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="%d" height="%d" fill="#4878a8"/>`+"\n", labelW, y, w, barH)
		fmt.Fprintf(&sb, `<text x="%d" y="%d">%g</text>`+"\n", labelW+w+6, y+barH-6, round3(b.value))
	}
	sb.WriteString("</svg>\n")
	return sb.String(), nil
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// Heatmap renders a pivot table as the Figure 2 style text heatmap:
// rows × columns with percentage cells, "*" for unsupported combinations.
// Values are fractions (0..1) rendered as percentages.
func Heatmap(pt *dataframe.PivotTable, title string) string {
	colW := 8
	for _, c := range pt.ColLabels {
		if len(c)+2 > colW {
			colW = len(c) + 2
		}
	}
	rowW := 0
	for _, r := range pt.RowLabels {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	var sb strings.Builder
	if title != "" {
		fmt.Fprintf(&sb, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	}
	fmt.Fprintf(&sb, "%-*s", rowW, "")
	for _, c := range pt.ColLabels {
		fmt.Fprintf(&sb, "%*s", colW, trimLabel(c, colW-1))
	}
	sb.WriteString("\n")
	for i, r := range pt.RowLabels {
		fmt.Fprintf(&sb, "%-*s", rowW, r)
		for j := range pt.ColLabels {
			v := pt.Cells[i][j]
			if math.IsNaN(v) {
				fmt.Fprintf(&sb, "%*s", colW, "*")
				continue
			}
			fmt.Fprintf(&sb, "%*s", colW, fmt.Sprintf("%.1f%%", v*100))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
