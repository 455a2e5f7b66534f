package perflog

import (
	"reflect"
	"sort"
	"testing"
)

func TestRepStatsRoundTrip(t *testing.T) {
	e := &Entry{}
	want := RepStats{N: 5, Mean: 95.361, Stddev: 1.25, RSD: 0.0131, CILo: 94.2, CIHi: 96.5}
	e.SetRepStats("triad_mbps", want)

	got, ok := e.RepStats("triad_mbps")
	if !ok {
		t.Fatal("RepStats not found after SetRepStats")
	}
	if got != want {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}

	// And through the line format.
	e.Benchmark = "babelstream-omp"
	e.System = "archer2"
	e.Result = "pass"
	parsed, err := ParseLine(e.Line())
	if err != nil {
		t.Fatalf("ParseLine: %v", err)
	}
	got2, ok := parsed.RepStats("triad_mbps")
	if !ok || got2 != want {
		t.Fatalf("line round trip: ok=%v got %+v want %+v", ok, got2, want)
	}
}

func TestRepStatsAbsentAndMalformed(t *testing.T) {
	e := &Entry{}
	if _, ok := e.RepStats("triad_mbps"); ok {
		t.Fatal("nil extras reported stats")
	}
	e.Extra = map[string]string{"num_tasks": "8"}
	if _, ok := e.RepStats("triad_mbps"); ok {
		t.Fatal("pre-repetition entry reported stats")
	}
	// n present but mean missing → malformed, not a partial decode.
	e.Extra["rep:triad_mbps:n"] = "3"
	if _, ok := e.RepStats("triad_mbps"); ok {
		t.Fatal("partial rep extras decoded")
	}
	e.SetRepStats("triad_mbps", RepStats{N: 3, Mean: 1})
	e.Extra["rep:triad_mbps:mean"] = "not-a-float"
	if _, ok := e.RepStats("triad_mbps"); ok {
		t.Fatal("malformed float decoded")
	}
	e.SetRepStats("triad_mbps", RepStats{N: 3, Mean: 1})
	e.Extra["rep:triad_mbps:n"] = "0"
	if _, ok := e.RepStats("triad_mbps"); ok {
		t.Fatal("n=0 decoded as valid stats")
	}
}

func TestRepFOMs(t *testing.T) {
	e := &Entry{}
	if names := e.RepFOMs(); len(names) != 0 {
		t.Fatalf("empty entry listed rep FOMs: %v", names)
	}
	e.SetRepStats("triad_mbps", RepStats{N: 3})
	e.SetRepStats("gflops", RepStats{N: 5})
	names := e.RepFOMs()
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{"gflops", "triad_mbps"}) {
		t.Fatalf("RepFOMs = %v", names)
	}
}

func TestFormatRepStats(t *testing.T) {
	got := FormatRepStats(RepStats{N: 4, Mean: 10.5, Stddev: 0.25, CILo: 10.2, CIHi: 10.8})
	want := "10.500 ± 0.250 [10.200, 10.800] n=4"
	if got != want {
		t.Fatalf("FormatRepStats = %q, want %q", got, want)
	}
}

// TestRepStatsReaderReuse: one reader serves any number of entries, and
// an entry that carries no stats costs it no allocation — the property
// the query loops in perfstore rely on.
func TestRepStatsReaderReuse(t *testing.T) {
	with := &Entry{Extra: map[string]string{"num_tasks": "8"}}
	want := RepStats{N: 3, Mean: 10, Stddev: 1, RSD: 0.1, CILo: 9, CIHi: 11}
	with.SetRepStats("l0", want)
	with.SetRepStats("l1", RepStats{N: 2, Mean: 5})
	without := &Entry{Extra: map[string]string{"num_tasks": "8"}}
	r := NewRepStatsReader("l0")
	for i := 0; i < 2; i++ {
		if got, ok := r.Read(with); !ok || got != want {
			t.Fatalf("read %d: ok=%v got %+v want %+v", i, ok, got, want)
		}
		if _, ok := r.Read(without); ok {
			t.Fatal("stat-less entry reported stats")
		}
		if _, ok := r.Read(&Entry{}); ok {
			t.Fatal("nil extras reported stats")
		}
	}
	if n := testing.AllocsPerRun(100, func() { r.Read(without) }); n != 0 {
		t.Fatalf("a miss allocated %v times", n)
	}
}
