package yamlite

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, text string) Value {
	t.Helper()
	v, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return v
}

func TestEmptyDocument(t *testing.T) {
	for _, text := range []string{"", "\n\n", "# just a comment\n", "   \n # c\n"} {
		v, err := Parse(text)
		if err != nil {
			t.Errorf("Parse(%q): %v", text, err)
		}
		if v != nil {
			t.Errorf("Parse(%q) = %v, want nil", text, v)
		}
	}
}

func TestScalars(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"hello", "hello"},
		{"42", int64(42)},
		{"-7", int64(-7)},
		{"3.14", 3.14},
		{"true", true},
		{"False", false},
		{"null", nil},
		{"~", nil},
		{"'quoted string'", "quoted string"},
		{`"esc\tape"`, "esc\tape"},
		{"'it''s'", "it's"},
		{"2x29", "2x29"}, // not a number
	}
	for _, c := range cases {
		got := mustParse(t, c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Parse(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestFlatMapping(t *testing.T) {
	v := mustParse(t, "name: archer2\ncores: 128\nbw: 409.6\ngpu: false\n")
	want := map[string]Value{
		"name": "archer2", "cores": int64(128), "bw": 409.6, "gpu": false,
	}
	if !reflect.DeepEqual(v, want) {
		t.Errorf("got %#v", v)
	}
}

func TestNestedMapping(t *testing.T) {
	text := `
system:
  name: isambard-macs
  partition:
    name: cascadelake
    cores: 40
`
	v := mustParse(t, text)
	got, err := getPath(v, "system.partition.cores")
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(40) {
		t.Errorf("cores = %v", got)
	}
	if _, err := getPath(v, "system.partition.sockets"); err == nil {
		t.Error("missing key must error")
	}
	if _, err := getPath(v, "system.name.inner"); err == nil {
		t.Error("walking through a scalar must error")
	}
}

func TestSequences(t *testing.T) {
	v := mustParse(t, "- a\n- 2\n- true\n")
	want := []Value{"a", int64(2), true}
	if !reflect.DeepEqual(v, want) {
		t.Errorf("got %#v", v)
	}
}

func TestSequenceOfMappings(t *testing.T) {
	text := `
series:
  - column: triad
    label: Triad
  - column: copy
    label: Copy
`
	v := mustParse(t, text)
	s, err := getPath(v, "series")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Seq(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2 {
		t.Fatalf("len = %d", len(seq))
	}
	m0, err := Map(seq[0])
	if err != nil {
		t.Fatal(err)
	}
	if m0["column"] != "triad" || m0["label"] != "Triad" {
		t.Errorf("seq[0] = %#v", m0)
	}
	m1, _ := Map(seq[1])
	if m1["column"] != "copy" {
		t.Errorf("seq[1] = %#v", m1)
	}
}

func TestSequenceOfBlocks(t *testing.T) {
	text := `
partitions:
  -
    name: compute
    nodes: 5860
  -
    name: gpu
    nodes: 4
`
	v := mustParse(t, text)
	s, _ := getPath(v, "partitions")
	seq, err := Seq(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2 {
		t.Fatalf("len = %d: %#v", len(seq), seq)
	}
	m, _ := Map(seq[1])
	if m["nodes"] != int64(4) {
		t.Errorf("gpu nodes = %v", m["nodes"])
	}
}

func TestComments(t *testing.T) {
	text := `
# top comment
key: value # trailing comment
other: 'has # inside'   # but this goes
`
	v := mustParse(t, text)
	m, _ := Map(v)
	if m["key"] != "value" {
		t.Errorf("key = %q", m["key"])
	}
	if m["other"] != "has # inside" {
		t.Errorf("other = %q", m["other"])
	}
}

func TestQuotedKeys(t *testing.T) {
	v := mustParse(t, "'weird: key': 1\n")
	m, _ := Map(v)
	if m["weird: key"] != int64(1) {
		t.Errorf("got %#v", m)
	}
}

func TestErrors(t *testing.T) {
	for _, bad := range []string{
		"a: 1\na: 2\n",       // duplicate key
		"a: 1\n  b: orphan:", // unexpected indentation under scalar value... (b treated as nested? a has value) -> error
		"- a\nb: 1\n",        // sequence then mapping at same level
		"key: 'unterminated\n",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestTypedAccessorErrors(t *testing.T) {
	if _, err := Map("notamap"); err == nil {
		t.Error("Map on scalar")
	}
	if _, err := Seq("notaseq"); err == nil {
		t.Error("Seq on scalar")
	}
	if _, err := Str([]Value{"x"}); err == nil {
		t.Error("Str on sequence")
	}
	if s, err := Str(int64(3)); err != nil || s != "3" {
		t.Errorf("Str(3) = %q, %v", s, err)
	}
	if s, err := Str(2.5); err != nil || s != "2.5" {
		t.Errorf("Str(2.5) = %q, %v", s, err)
	}
}

func TestKeysSorted(t *testing.T) {
	m := map[string]Value{"b": 1, "a": 2, "c": 3}
	got := Keys(m)
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Keys = %v", got)
	}
}

func TestRealisticConfig(t *testing.T) {
	// The shape of a post-processing plot config (paper §2.4).
	text := `
title: BabelStream Triad
x_axis:
  value: system
  sort: ascending
y_axis:
  value: triad_bw
  units: GB/s
filters:
  and:
    - [job_nnodes, ==, 1]
series: [programming_model]
`
	// Flow sequences on one line are not supported; the list above uses
	// flow syntax, so this should fail cleanly rather than mis-parse.
	if _, err := Parse(text); err == nil {
		v := mustParse(t, text)
		if _, err2 := getPath(v, "x_axis.value"); err2 != nil {
			t.Errorf("config misparsed: %v", err2)
		}
	}
	// Block form of the same config must parse.
	block := `
title: BabelStream Triad
x_axis:
  value: system
  sort: ascending
y_axis:
  value: triad_bw
  units: GB/s
series:
  - programming_model
`
	v := mustParse(t, block)
	got, err := getPath(v, "y_axis.units")
	if err != nil || got != "GB/s" {
		t.Errorf("units = %v, %v", got, err)
	}
}

func TestStrCoercions(t *testing.T) {
	cases := []struct {
		in   Value
		want string
	}{
		{int64(42), "42"},
		{3.5, "3.5"},
		{true, "true"},
		{false, "false"},
		{"plain", "plain"},
	}
	for _, c := range cases {
		got, err := Str(c.in)
		if err != nil || got != c.want {
			t.Errorf("Str(%v) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
	if _, err := Str(nil); err == nil {
		t.Error("Str(nil) accepted")
	}
	if _, err := Str([]Value{}); err == nil {
		t.Error("Str of a sequence accepted")
	}
}

func TestQuotedKeyForms(t *testing.T) {
	// Double-quoted keys with escapes, single-quoted with doubled quotes.
	v := mustParse(t, "\"tab\\tkey\": 1\n'it''s': 2\n")
	m, _ := Map(v)
	if m["tab\tkey"] != int64(1) {
		t.Errorf("double-quoted key lost: %#v", m)
	}
	if m["it's"] != int64(2) {
		t.Errorf("single-quoted key lost: %#v", m)
	}
}

func TestBoolTrueValue(t *testing.T) {
	m, err := Map(mustParse(t, "flag: true\n"))
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := m["flag"].(bool); !ok || !b {
		t.Errorf("flag = %#v, want true", m["flag"])
	}
	if s, err := Str(m["flag"]); err != nil || s != "true" {
		t.Errorf("Str(true) = %q, %v", s, err)
	}
}

// getPath walks nested mappings by dotted path ("plot.series.column"),
// returning an error naming the missing segment.
func getPath(v Value, path string) (Value, error) {
	cur := v
	for _, seg := range strings.Split(path, ".") {
		m, err := Map(cur)
		if err != nil {
			return nil, fmt.Errorf("yamlite: path %q: %w", path, err)
		}
		next, ok := m[seg]
		if !ok {
			return nil, fmt.Errorf("yamlite: path %q: missing key %q", path, seg)
		}
		cur = next
	}
	return cur, nil
}
