// Package dataframe is a small column-oriented data table, the
// assimilation substrate the framework's post-processing uses in place of
// Pandas (paper §2.4): perflog entries become rows, filters and group-bys
// select series, and the plotting layer consumes the result. Columns are
// either float64 or string; missing numeric values are NaN and missing
// strings are "".
package dataframe

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind is a column's element type.
type Kind int

const (
	Float Kind = iota
	String
)

func (k Kind) String() string {
	if k == String {
		return "string"
	}
	return "float"
}

// Column is one named, typed column.
type Column struct {
	Name    string
	kind    Kind
	floats  []float64
	strings []string
}

// Kind reports the column's element type.
func (c *Column) Kind() Kind { return c.kind }

// Len returns the column length.
func (c *Column) Len() int {
	if c.kind == Float {
		return len(c.floats)
	}
	return len(c.strings)
}

// Float returns the i-th value of a float column.
func (c *Column) Float(i int) float64 {
	if c.kind != Float {
		return math.NaN()
	}
	return c.floats[i]
}

// Str returns the i-th value of a string column (or the formatted float).
func (c *Column) Str(i int) string {
	if c.kind == String {
		return c.strings[i]
	}
	v := c.floats[i]
	if math.IsNaN(v) {
		return ""
	}
	return formatFloat(v)
}

func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

// Frame is an immutable-ish table of equal-length columns. Mutating
// methods return new frames; the builders (AddFloatColumn etc.) mutate in
// place while assembling.
type Frame struct {
	cols  []*Column
	index map[string]int
}

// New returns an empty frame.
func New() *Frame {
	return &Frame{index: map[string]int{}}
}

// AddFloatColumn appends a float column; all columns must share a length.
func (f *Frame) AddFloatColumn(name string, values []float64) error {
	return f.addColumn(&Column{Name: name, kind: Float, floats: values})
}

// AddStringColumn appends a string column.
func (f *Frame) AddStringColumn(name string, values []string) error {
	return f.addColumn(&Column{Name: name, kind: String, strings: values})
}

func (f *Frame) addColumn(c *Column) error {
	if c.Name == "" {
		return fmt.Errorf("dataframe: column with empty name")
	}
	if _, dup := f.index[c.Name]; dup {
		return fmt.Errorf("dataframe: duplicate column %q", c.Name)
	}
	if len(f.cols) > 0 && c.Len() != f.NumRows() {
		return fmt.Errorf("dataframe: column %q has %d rows, frame has %d", c.Name, c.Len(), f.NumRows())
	}
	f.index[c.Name] = len(f.cols)
	f.cols = append(f.cols, c)
	return nil
}

// NumRows returns the row count.
func (f *Frame) NumRows() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// Columns lists column names in insertion order.
func (f *Frame) Columns() []string {
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.Name
	}
	return out
}

// Has reports whether a column exists.
func (f *Frame) Has(name string) bool {
	_, ok := f.index[name]
	return ok
}

// Col returns a column by name.
func (f *Frame) Col(name string) (*Column, error) {
	i, ok := f.index[name]
	if !ok {
		return nil, fmt.Errorf("dataframe: no column %q (have %v)", name, f.Columns())
	}
	return f.cols[i], nil
}

// SelectColumns builds a new frame projecting the named columns, in the
// order given. A name ending in "*" selects every column with that
// prefix, in insertion order — "stage_*" pulls in the per-stage duration
// extras the runner records. The projection shares column storage with f.
func (f *Frame) SelectColumns(names ...string) (*Frame, error) {
	out := New()
	for _, name := range names {
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			found := false
			for _, c := range f.cols {
				if strings.HasPrefix(c.Name, prefix) {
					found = true
					if !out.Has(c.Name) {
						out.addColumn(c)
					}
				}
			}
			if !found {
				return nil, fmt.Errorf("dataframe: no columns match %q (have %v)", name, f.Columns())
			}
			continue
		}
		c, err := f.Col(name)
		if err != nil {
			return nil, err
		}
		if !out.Has(name) {
			out.addColumn(c)
		}
	}
	return out, nil
}

// selectRows builds a new frame holding the given row indices of f.
func (f *Frame) selectRows(rows []int) *Frame {
	out := New()
	for _, c := range f.cols {
		nc := &Column{Name: c.Name, kind: c.kind}
		if c.kind == Float {
			nc.floats = make([]float64, len(rows))
			for i, r := range rows {
				nc.floats[i] = c.floats[r]
			}
		} else {
			nc.strings = make([]string, len(rows))
			for i, r := range rows {
				nc.strings[i] = c.strings[r]
			}
		}
		out.index[nc.Name] = len(out.cols)
		out.cols = append(out.cols, nc)
	}
	return out
}

// String renders the frame as an aligned text table (header + rows),
// useful in reports and tests.
func (f *Frame) String() string {
	names := f.Columns()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	rows := make([][]string, f.NumRows())
	for r := 0; r < f.NumRows(); r++ {
		rows[r] = make([]string, len(names))
		for i, c := range f.cols {
			s := c.Str(r)
			rows[r][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], n)
	}
	b.WriteString("\n")
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// sortedUnique returns sorted unique values of a string column.
func sortedUnique(values []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range values {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}
