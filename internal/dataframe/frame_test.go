package dataframe

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func sampleFrame(t *testing.T) *Frame {
	t.Helper()
	f := New()
	if err := f.AddStringColumn("system", []string{"archer2", "cosma8", "csd3", "isambard", "archer2"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddStringColumn("level", []string{"l0", "l0", "l0", "l0", "l1"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFloatColumn("dofs", []float64{95.36, 81.67, 126.10, 30.59, 83.43}); err != nil {
		t.Fatal(err)
	}
	return f
}

// floatAt returns cell (row, col) of a float column.
func floatAt(t *testing.T, f *Frame, col string, row int) float64 {
	t.Helper()
	c, err := f.Col(col)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind() != Float {
		t.Fatalf("column %q is %s, not float", col, c.Kind())
	}
	return c.Float(row)
}

// strAt reads a cell through Col and Column.Str.
func strAt(t *testing.T, f *Frame, col string, row int) string {
	t.Helper()
	c, err := f.Col(col)
	if err != nil {
		t.Fatal(err)
	}
	return c.Str(row)
}

func TestBuilders(t *testing.T) {
	f := sampleFrame(t)
	if f.NumRows() != 5 || len(f.Columns()) != 3 {
		t.Fatalf("shape = %dx%d", f.NumRows(), len(f.Columns()))
	}
	if got := f.Columns(); got[0] != "system" || got[2] != "dofs" {
		t.Errorf("columns = %v", got)
	}
	if !f.Has("dofs") || f.Has("nope") {
		t.Error("Has wrong")
	}
	if v := floatAt(t, f, "dofs", 2); v != 126.10 {
		t.Errorf("Float = %v", v)
	}
	if s := strAt(t, f, "system", 3); s != "isambard" {
		t.Errorf("Str = %v", s)
	}
}

func TestBuilderErrors(t *testing.T) {
	f := New()
	if err := f.AddFloatColumn("", nil); err == nil {
		t.Error("empty name accepted")
	}
	if err := f.AddFloatColumn("a", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFloatColumn("a", []float64{3, 4}); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := f.AddStringColumn("b", []string{"x"}); err == nil {
		t.Error("ragged column accepted")
	}
	if _, err := f.Col("missing"); err == nil {
		t.Error("missing column lookup accepted")
	}
}

func TestFloatOnStringColumn(t *testing.T) {
	f := sampleFrame(t)
	c, _ := f.Col("system")
	if !math.IsNaN(c.Float(0)) {
		t.Error("Column.Float on string column should be NaN")
	}
}

func TestFilterEq(t *testing.T) {
	f := sampleFrame(t)
	got, err := f.FilterEq("system", "archer2")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	if v := floatAt(t, got, "dofs", 1); v != 83.43 {
		t.Errorf("second archer2 row dofs = %g", v)
	}
}

func TestFilterNum(t *testing.T) {
	f := sampleFrame(t)
	cases := []struct {
		op   CmpOp
		v    float64
		want int
	}{
		{Gt, 90, 2},
		{Ge, 95.36, 2},
		{Lt, 82, 2},
		{Le, 30.59, 1},
		{Eq, 126.10, 1},
		{Ne, 126.10, 4},
	}
	for _, c := range cases {
		got, err := f.FilterNum("dofs", c.op, c.v)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != c.want {
			t.Errorf("FilterNum(%s %g) = %d rows, want %d", c.op, c.v, got.NumRows(), c.want)
		}
	}
	if _, err := f.FilterNum("system", Gt, 1); err == nil {
		t.Error("FilterNum on string column accepted")
	}
	if _, err := f.FilterNum("dofs", CmpOp("~"), 1); err == nil {
		t.Error("unknown operator accepted")
	}
}

func TestFilterNumSkipsNaN(t *testing.T) {
	f := New()
	_ = f.AddFloatColumn("x", []float64{1, math.NaN(), 3})
	got, err := f.FilterNum("x", Gt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 {
		t.Errorf("NaN matched: %d rows", got.NumRows())
	}
	// Ne must not match NaN either.
	got, _ = f.FilterNum("x", Ne, 99)
	if got.NumRows() != 2 {
		t.Errorf("NaN matched Ne: %d rows", got.NumRows())
	}
}

func TestSort(t *testing.T) {
	f := sampleFrame(t)
	asc, err := f.Sort("dofs", true)
	if err != nil {
		t.Fatal(err)
	}
	first := floatAt(t, asc, "dofs", 0)
	last := floatAt(t, asc, "dofs", asc.NumRows()-1)
	if first != 30.59 || last != 126.10 {
		t.Errorf("ascending sort wrong: %g..%g", first, last)
	}
	desc, _ := f.Sort("dofs", false)
	first = floatAt(t, desc, "dofs", 0)
	if first != 126.10 {
		t.Errorf("descending sort wrong: %g", first)
	}
	byName, _ := f.Sort("system", true)
	if s := strAt(t, byName, "system", 0); s != "archer2" {
		t.Errorf("string sort wrong: %s", s)
	}
}

func TestSortNaNLast(t *testing.T) {
	f := New()
	_ = f.AddFloatColumn("x", []float64{math.NaN(), 2, 1})
	got, _ := f.Sort("x", true)
	if v := floatAt(t, got, "x", 0); v != 1 {
		t.Errorf("first = %g", v)
	}
	if v := floatAt(t, got, "x", 2); !math.IsNaN(v) {
		t.Errorf("NaN not last: %g", v)
	}
}

func TestHeadAndSelect(t *testing.T) {
	f := sampleFrame(t)
	h := f.Filter(func(row int) bool { return row < 2 })
	if h.NumRows() != 2 || len(h.Columns()) != 3 {
		t.Errorf("head shape = %dx%d", h.NumRows(), len(h.Columns()))
	}
	if s := strAt(t, h, "system", 1); s != "cosma8" {
		t.Errorf("head row 1 = %q", s)
	}
	sel, err := f.SelectColumns("dofs", "system")
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Columns(); got[0] != "dofs" || got[1] != "system" || len(got) != 2 {
		t.Errorf("select columns = %v", got)
	}
	if _, err := f.SelectColumns("nope"); err == nil {
		t.Error("select of missing column accepted")
	}
}

func TestPivot(t *testing.T) {
	// The Figure 2 shape: model × platform -> efficiency.
	f := New()
	_ = f.AddStringColumn("model", []string{"omp", "omp", "cuda", "kokkos"})
	_ = f.AddStringColumn("platform", []string{"cascadelake", "volta", "volta", "cascadelake"})
	_ = f.AddFloatColumn("eff", []float64{0.80, 0.70, 0.93, 0.76})
	pt, err := f.Pivot("model", "platform", "eff")
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.RowLabels) != 3 || len(pt.ColLabels) != 2 {
		t.Fatalf("pivot shape %dx%d", len(pt.RowLabels), len(pt.ColLabels))
	}
	// Rows sort cuda, kokkos, omp; columns cascadelake, volta.
	if v := pt.Cells[2][1]; v != 0.70 {
		t.Errorf("omp/volta = %g", v)
	}
	if v := pt.Cells[0][0]; !math.IsNaN(v) {
		t.Errorf("cuda/cascadelake should be missing (NaN), got %g", v)
	}
	if _, err := f.Pivot("model", "platform", "model"); err == nil {
		t.Error("string value column accepted")
	}
}

// readCSV parses what WriteCSV wrote with the standard reader.
func readCSV(t *testing.T, r io.Reader) [][]string {
	t.Helper()
	records, err := csv.NewReader(r).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return records
}

func TestCSVRoundTrip(t *testing.T) {
	f := sampleFrame(t)
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := readCSV(t, &buf)
	if len(got) != f.NumRows()+1 {
		t.Fatalf("records = %d, want header + %d rows", len(got), f.NumRows())
	}
	if strings.Join(got[0], ",") != "system,level,dofs" {
		t.Errorf("header = %v", got[0])
	}
	for r := 0; r < f.NumRows(); r++ {
		for c, name := range f.Columns() {
			want := strAt(t, f, name, r)
			if got[r+1][c] != want {
				t.Errorf("cell (%d, %s) = %q, want %q", r, name, got[r+1][c], want)
			}
		}
	}
	if v, err := strconv.ParseFloat(got[3][2], 64); err != nil || v != 126.10 {
		t.Errorf("dofs[2] = %q", got[3][2])
	}
}

func TestCSVNaNRoundTrip(t *testing.T) {
	f := New()
	_ = f.AddFloatColumn("x", []float64{1, math.NaN(), 3})
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := readCSV(t, &buf)
	if len(got) != 4 {
		t.Fatalf("records = %v: a NaN row must not vanish as a blank line", got)
	}
	if v, err := strconv.ParseFloat(got[2][0], 64); err != nil || !math.IsNaN(v) {
		t.Errorf("NaN cell = %q", got[2][0])
	}
}

func TestStringRendering(t *testing.T) {
	f := sampleFrame(t)
	s := f.String()
	if !strings.Contains(s, "system") || !strings.Contains(s, "archer2") || !strings.Contains(s, "126.1") {
		t.Errorf("render:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 6 { // header + 5 rows
		t.Errorf("lines = %d", len(lines))
	}
}

func TestSaveLoadCSV(t *testing.T) {
	f := sampleFrame(t)
	path := t.TempDir() + "/out.csv"
	if err := f.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if got := readCSV(t, file); len(got) != 6 {
		t.Errorf("records = %d, want header + 5 rows", len(got))
	}
	if err := f.SaveCSV(filepath.Join(path+".missing", "out.csv")); err == nil {
		t.Error("save into a missing directory accepted")
	}
}

func TestSelectColumns(t *testing.T) {
	f := sampleFrame(t)
	got, err := f.SelectColumns("dofs", "system")
	if err != nil {
		t.Fatal(err)
	}
	if cols := got.Columns(); len(cols) != 2 || cols[0] != "dofs" || cols[1] != "system" {
		t.Errorf("columns = %v", cols)
	}
	if got.NumRows() != 5 {
		t.Errorf("rows = %d", got.NumRows())
	}

	// A trailing * selects by prefix, in insertion order, and repeats
	// are dropped.
	got, err = f.SelectColumns("system", "l*", "level")
	if err != nil {
		t.Fatal(err)
	}
	if cols := got.Columns(); len(cols) != 2 || cols[1] != "level" {
		t.Errorf("columns = %v", cols)
	}

	if _, err := f.SelectColumns("nope"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := f.SelectColumns("zz*"); err == nil {
		t.Error("unmatched prefix accepted")
	}
}
