package spec

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestVersionCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1", "2", -1},
		{"2", "1", 1},
		{"1.0", "1.0", 0},
		{"1.2", "1.10", -1},
		{"9.2.0", "10.3.0", -1},
		{"1.2", "1.2.1", -1},
		{"1.2.1", "1.2", 1},
		{"4.0.4", "4.0.3", 1},
		{"2021.1", "2023.1.0", -1},
		{"1.0rc1", "1.0", 1},   // non-numeric sorts after numeric
		{"1.a", "1.b", -1},     // lexicographic fallback
		{"8.1.23", "8.1.9", 1}, // numeric, not lexicographic
	}
	for _, c := range cases {
		if got := Version(c.a).Compare(Version(c.b)); got != c.want {
			t.Errorf("Compare(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestVersionCompareAntisymmetric(t *testing.T) {
	gen := func(seed int64) Version {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = strconv.Itoa(r.Intn(30))
		}
		return Version(strings.Join(parts, "."))
	}
	f := func(s1, s2 int64) bool {
		a, b := gen(s1), gen(s2)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVersionIsPrefixOf(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"9.2", "9.2.0", true},
		{"9.2", "9.2", true},
		{"9.2.0", "9.2", false},
		{"9", "9.2.0", true},
		{"9.2", "9.20.0", false},
	}
	for _, c := range cases {
		if got := Version(c.a).IsPrefixOf(Version(c.b)); got != c.want {
			t.Errorf("IsPrefixOf(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestVersionRangeContains(t *testing.T) {
	mustRange := func(s string) VersionRange {
		r, err := ParseVersionRange(s)
		if err != nil {
			t.Fatalf("ParseVersionRange(%q): %v", s, err)
		}
		return r
	}
	cases := []struct {
		rng, v string
		want   bool
	}{
		{"9.2.0", "9.2.0", true},
		{"9.2", "9.2.0", true}, // prefix match: @9.2 matches 9.2.0
		{"9.2.0", "9.2.1", false},
		{"1.2:1.9", "1.5", true},
		{"1.2:1.9", "1.9.5", true}, // hi prefix counts as within bound
		{"1.2:1.9", "2.0", false},
		{"1.2:", "99", true},
		{":2.0", "1.0", true},
		{":2.0", "2.1", false},
		{"1.2:1.9", "1.2", true},
	}
	for _, c := range cases {
		if got := mustRange(c.rng).Contains(Version(c.v)); got != c.want {
			t.Errorf("(%q).Contains(%q) = %v, want %v", c.rng, c.v, got, c.want)
		}
	}
	if !(VersionRange{}).Contains("anything.at.all") {
		t.Error("the zero range must contain every version")
	}
}

func TestVersionRangeIntersect(t *testing.T) {
	r := func(s string) VersionRange {
		vr, err := ParseVersionRange(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return vr
	}
	cases := []struct {
		a, b string
		want string
		ok   bool
	}{
		{"1.0:2.0", "1.5:3.0", "1.5:2.0", true},
		{"1.0:2.0", "2.5:3.0", "", false},
		{"1.0:", ":2.0", "1.0:2.0", true},
		{"1.5", "1.0:2.0", "1.5", true},
		{"1.5", "1.6:2.0", "", false},
		{"9.2", "9.2.0", "9.2.0", true}, // prefix-compatible exacts pick the longer
		{"9.2.0", "9.2", "9.2.0", true},
		{"9.2.0", "9.3.0", "", false},
	}
	for _, c := range cases {
		got, ok := r(c.a).Intersect(r(c.b))
		if ok != c.ok {
			t.Errorf("Intersect(%q,%q) ok=%v, want %v", c.a, c.b, ok, c.ok)
			continue
		}
		if ok && got.String() != c.want {
			t.Errorf("Intersect(%q,%q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
	// Identity with Any.
	if got, ok := (VersionRange{}).Intersect(r("1.0:2.0")); !ok || got.String() != "1.0:2.0" {
		t.Errorf("Any∩[1.0:2.0] = %q,%v", got, ok)
	}
}

func TestVersionRangeIntersectCommutative(t *testing.T) {
	ranges := []VersionRange{
		VersionRange{},
		ExactVersion("1.5"),
		ExactVersion("9.2"),
		{Lo: "1.0", Hi: "2.0"},
		{Lo: "1.5"},
		{Hi: "1.8"},
	}
	for _, a := range ranges {
		for _, b := range ranges {
			x, okx := a.Intersect(b)
			y, oky := b.Intersect(a)
			if okx != oky {
				t.Errorf("Intersect not commutative in ok: %v vs %v for %q,%q", okx, oky, a, b)
			}
			if okx && x.String() != y.String() {
				t.Errorf("Intersect(%q,%q)=%q but reversed %q", a, b, x, y)
			}
		}
	}
}

func TestParseVersionRangeErrors(t *testing.T) {
	for _, bad := range []string{"", "1..2", "1:2:3", "2.0:1.0", "1 2", "a b"} {
		if _, err := ParseVersionRange(bad); err == nil {
			t.Errorf("ParseVersionRange(%q): expected error", bad)
		}
	}
}

func TestVersionRangeString(t *testing.T) {
	cases := []struct{ in, out string }{
		{"1.2", "1.2"},
		{"1.2:1.9", "1.2:1.9"},
		{":2.0", ":2.0"},
		{"1.2:", "1.2:"},
	}
	for _, c := range cases {
		r, err := ParseVersionRange(c.in)
		if err != nil {
			t.Fatalf("parse %q: %v", c.in, err)
		}
		if got := r.String(); got != c.out {
			t.Errorf("String of %q = %q, want %q", c.in, got, c.out)
		}
	}
}
