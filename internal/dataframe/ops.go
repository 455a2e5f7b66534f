package dataframe

import (
	"fmt"
	"math"
	"sort"
)

// Filter returns the rows for which pred returns true.
func (f *Frame) Filter(pred func(row int) bool) *Frame {
	var rows []int
	for r := 0; r < f.NumRows(); r++ {
		if pred(r) {
			rows = append(rows, r)
		}
	}
	return f.selectRows(rows)
}

// FilterEq keeps rows where the string column equals value.
func (f *Frame) FilterEq(col, value string) (*Frame, error) {
	c, err := f.Col(col)
	if err != nil {
		return nil, err
	}
	return f.Filter(func(r int) bool { return c.Str(r) == value }), nil
}

// CmpOp is a numeric comparison operator for FilterNum.
type CmpOp string

const (
	Eq CmpOp = "=="
	Ne CmpOp = "!="
	Lt CmpOp = "<"
	Le CmpOp = "<="
	Gt CmpOp = ">"
	Ge CmpOp = ">="
)

// FilterNum keeps rows where the float column compares true against v.
// NaN cells never match.
func (f *Frame) FilterNum(col string, op CmpOp, v float64) (*Frame, error) {
	c, err := f.Col(col)
	if err != nil {
		return nil, err
	}
	if c.Kind() != Float {
		return nil, fmt.Errorf("dataframe: FilterNum on %s column %q", c.Kind(), col)
	}
	cmp := func(x float64) bool {
		switch op {
		case Eq:
			return x == v
		case Ne:
			return x != v
		case Lt:
			return x < v
		case Le:
			return x <= v
		case Gt:
			return x > v
		case Ge:
			return x >= v
		default:
			return false
		}
	}
	if op != Eq && op != Ne && op != Lt && op != Le && op != Gt && op != Ge {
		return nil, fmt.Errorf("dataframe: unknown comparison %q", op)
	}
	return f.Filter(func(r int) bool {
		x := c.Float(r)
		return !math.IsNaN(x) && cmp(x)
	}), nil
}

// Sort returns a copy sorted by the column (stable). Float columns sort
// numerically with NaN last; string columns lexicographically.
func (f *Frame) Sort(col string, ascending bool) (*Frame, error) {
	c, err := f.Col(col)
	if err != nil {
		return nil, err
	}
	rows := make([]int, f.NumRows())
	for i := range rows {
		rows[i] = i
	}
	less := func(a, b int) bool {
		if c.Kind() == Float {
			x, y := c.Float(a), c.Float(b)
			switch {
			case math.IsNaN(x):
				return false
			case math.IsNaN(y):
				return true
			default:
				return x < y
			}
		}
		return c.Str(a) < c.Str(b)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if ascending {
			return less(rows[i], rows[j])
		}
		return less(rows[j], rows[i])
	})
	return f.selectRows(rows), nil
}

// Select returns a frame with only the named columns, in that order.
func (f *Frame) Select(cols ...string) (*Frame, error) {
	out := New()
	for _, name := range cols {
		c, err := f.Col(name)
		if err != nil {
			return nil, err
		}
		out.index[c.Name] = len(out.cols)
		out.cols = append(out.cols, c)
	}
	return out, nil
}

// Agg is a group-by aggregation function over float values.
type Agg func([]float64) float64

// GroupBy groups rows by the values of the named string columns and
// aggregates the named float column, producing one row per group with the
// key columns plus an aggregate column named like valueCol.
func (f *Frame) GroupBy(keyCols []string, valueCol string, agg Agg) (*Frame, error) {
	for _, k := range keyCols {
		if _, err := f.Col(k); err != nil {
			return nil, err
		}
	}
	vc, err := f.Col(valueCol)
	if err != nil {
		return nil, err
	}
	if vc.Kind() != Float {
		return nil, fmt.Errorf("dataframe: GroupBy value column %q must be float", valueCol)
	}
	type group struct {
		keys   []string
		values []float64
	}
	groups := map[string]*group{}
	var order []string
	for r := 0; r < f.NumRows(); r++ {
		keys := make([]string, len(keyCols))
		for i, k := range keyCols {
			keys[i], _ = f.Str(k, r)
		}
		id := fmt.Sprintf("%q", keys)
		g, ok := groups[id]
		if !ok {
			g = &group{keys: keys}
			groups[id] = g
			order = append(order, id)
		}
		g.values = append(g.values, vc.Float(r))
	}
	out := New()
	keyData := make([][]string, len(keyCols))
	var aggData []float64
	for _, id := range order {
		g := groups[id]
		for i := range keyCols {
			keyData[i] = append(keyData[i], g.keys[i])
		}
		aggData = append(aggData, agg(g.values))
	}
	for i, k := range keyCols {
		if err := out.AddStringColumn(k, keyData[i]); err != nil {
			return nil, err
		}
	}
	if err := out.AddFloatColumn(valueCol, aggData); err != nil {
		return nil, err
	}
	return out, nil
}

// Pivot builds a 2-D table: one row per unique rowCol value, one column
// per unique colCol value, cells from valueCol (last wins on duplicates,
// NaN when absent). Row and column labels are returned sorted. This is
// the shape of the Figure 2 heatmap: programming model × platform.
type PivotTable struct {
	RowLabels []string
	ColLabels []string
	Cells     [][]float64 // Cells[i][j] for RowLabels[i] × ColLabels[j]
}

// Pivot computes a pivot table from three columns.
func (f *Frame) Pivot(rowCol, colCol, valueCol string) (*PivotTable, error) {
	rc, err := f.Col(rowCol)
	if err != nil {
		return nil, err
	}
	cc, err := f.Col(colCol)
	if err != nil {
		return nil, err
	}
	vc, err := f.Col(valueCol)
	if err != nil {
		return nil, err
	}
	if vc.Kind() != Float {
		return nil, fmt.Errorf("dataframe: Pivot value column %q must be float", valueCol)
	}
	rows := make([]string, f.NumRows())
	cols := make([]string, f.NumRows())
	for r := 0; r < f.NumRows(); r++ {
		rows[r] = rc.Str(r)
		cols[r] = cc.Str(r)
	}
	pt := &PivotTable{RowLabels: sortedUnique(rows), ColLabels: sortedUnique(cols)}
	ri := map[string]int{}
	for i, l := range pt.RowLabels {
		ri[l] = i
	}
	ci := map[string]int{}
	for j, l := range pt.ColLabels {
		ci[l] = j
	}
	pt.Cells = make([][]float64, len(pt.RowLabels))
	for i := range pt.Cells {
		pt.Cells[i] = make([]float64, len(pt.ColLabels))
		for j := range pt.Cells[i] {
			pt.Cells[i][j] = math.NaN()
		}
	}
	for r := 0; r < f.NumRows(); r++ {
		pt.Cells[ri[rows[r]]][ci[cols[r]]] = vc.Float(r)
	}
	return pt, nil
}
