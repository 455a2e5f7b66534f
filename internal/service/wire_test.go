package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/bench/gen"
	"repro/internal/fom"
	"repro/internal/perflog"
)

// sentinel stands in for a non-finite FOM when the reference renders the
// expected body: encoding/json refuses NaN and ±Inf, the wire encoder
// writes null, so the reference's rendering of the sentinel becomes null.
const sentinel = 7.77e+300

var sentinelValue = []byte(`"value": 7.77e+300`)

// finiteCopy returns the entries with every non-finite FOM replaced by
// the sentinel, and whether any was.
func finiteCopy(entries []*perflog.Entry) ([]*perflog.Entry, bool) {
	out := make([]*perflog.Entry, len(entries))
	replaced := false
	for i, e := range entries {
		out[i] = e
		for k, f := range e.FOMs {
			if math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
				if out[i] == e {
					c := *e
					c.FOMs = make(map[string]fom.Value, len(e.FOMs))
					for k2, f2 := range e.FOMs {
						c.FOMs[k2] = f2
					}
					out[i] = &c
				}
				f.Value = sentinel
				out[i].FOMs[k] = f
				replaced = true
			}
		}
	}
	return out, replaced
}

// unencodableTime reports whether some entry's timestamp is one
// encoding/json refuses (a year outside 0–9999, an offset of a day or more).
func unencodableTime(entries []*perflog.Entry) bool {
	for _, e := range entries {
		if _, err := e.Time.MarshalJSON(); err != nil {
			return true
		}
	}
	return false
}

// checkSelect asserts that the wire encoder's select body is byte-identical
// to the reference's indented encoding wherever the reference succeeds,
// writes null for non-finite FOMs, and refuses the timestamps the
// reference refuses. It also checks the run view built around each entry.
func checkSelect(t testing.TB, entries []*perflog.Entry) {
	t.Helper()
	w := getWire()
	defer w.free()
	err := w.selectBody(entries)
	finite, replaced := finiteCopy(entries)
	for _, e := range finite {
		checkRunView(t, e)
	}
	if unencodableTime(entries) {
		if err == nil {
			t.Fatalf("encoded a timestamp encoding/json refuses:\n%s", w.b)
		}
		return
	}
	if err != nil {
		t.Fatalf("encoder failed where the reference cannot: %v", err)
	}
	want, err := selectRef(finite)
	if err != nil {
		t.Fatalf("reference failed on finite input: %v", err)
	}
	if replaced {
		want = bytes.ReplaceAll(want, sentinelValue, []byte(`"value": null`))
	}
	if !bytes.Equal(w.b, want) {
		t.Fatalf("select body differs from the reference\n got: %q\nwant: %q", w.b, want)
	}
}

// checkRunView asserts GET /v1/runs/{id}'s body for a completed run
// carrying e is the one the reference view renders, and that the view
// fails to encode where the reference's timestamp does.
func checkRunView(t testing.TB, e *perflog.Entry) {
	t.Helper()
	at := time.Date(2026, 5, 4, 3, 2, 1, 0, time.UTC)
	r := &Run{ID: "run-000001", Benchmark: e.Benchmark, System: e.System, status: StatusCompleted,
		submitted: at, started: at, finished: at, entry: e}
	v := viewRun(r)
	got, err := encodeRef(v)
	if unencodableTime([]*perflog.Entry{e}) {
		if err == nil {
			t.Fatalf("run view encoded a timestamp encoding/json refuses:\n%s", got)
		}
		return
	}
	if err != nil {
		t.Fatalf("run view: %v", err)
	}
	ref := viewEntry(e)
	want, err := encodeRef(runRef{runView: v, Entry: &ref})
	if err != nil {
		t.Fatalf("reference run view: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("run view differs from the reference\n got: %q\nwant: %q", got, want)
	}
}

var (
	wireStrings = []string{
		"", "archer2", "a<b>&c", `say "hi" \o/`, "tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f",
		"bad \xff\xfe utf-8 \xc3", "line\u2028para\u2029", "héllo wörld ✓", "</script>", "🚀",
	}
	wireFloats = []float64{
		0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, -1e-7, 9.99e-7, 1e-6,
		0.1, 1, -1.5, 123.456, 1e20, 999999999999999999999, 1e21, 1.5e300, math.MaxFloat64,
		1 << 53, 1<<53 + 2, 123456789012345678, -98765432109876543210,
	}
	wireZones = []*time.Location{
		time.UTC, time.FixedZone("", 0), time.FixedZone("IST", 5*3600+30*60),
		time.FixedZone("PST", -8*3600), time.FixedZone("LMT", -(4*3600 + 56*60 + 2)),
	}
)

// randWireString mixes the hand-picked strings with random runes drawn
// from ASCII, the escaped set and a little non-ASCII.
func randWireString(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return wireStrings[rng.Intn(len(wireStrings))]
	}
	const alphabet = "abcxyz019 _-.:=%@/<>&\"\\\t\n\x00\x7f"
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		switch rng.Intn(8) {
		case 0:
			b.WriteRune([]rune{'é', '✓', '\u2028', '\u2029', '🚀'}[rng.Intn(5)])
		case 1:
			b.WriteByte(byte(0x80 + rng.Intn(0x80))) // a stray continuation or lead byte
		default:
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
	}
	return b.String()
}

func randWireFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return wireFloats[rng.Intn(len(wireFloats))]
	case 1:
		return math.Float64frombits(rng.Uint64()) // any bit pattern, NaNs and infinities included
	case 2:
		return float64(rng.Int63n(1<<62)) * float64(1-2*rng.Intn(2))
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
}

func randWireTime(rng *rand.Rand) time.Time {
	switch rng.Intn(5) {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(rng.Int63n(1<<34)-1<<33, 0).UTC()
	case 2: // years on both sides of 0–9999
		return time.Date(rng.Intn(20000)-5000, time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, rng.Intn(1e9), time.UTC)
	}
	t := time.Unix(rng.Int63n(4e9), rng.Int63n(1e9))
	if rng.Intn(2) == 0 {
		t = t.Truncate(time.Duration(rng.Intn(4)) * time.Millisecond)
	}
	return t.In(wireZones[rng.Intn(len(wireZones))])
}

// randWireEntry draws an entry covering nil vs empty maps, empty units,
// escaped strings, every float form and zoned, fractional and zero times.
func randWireEntry(rng *rand.Rand) *perflog.Entry {
	e := &perflog.Entry{
		Time:      randWireTime(rng),
		Benchmark: randWireString(rng),
		System:    randWireString(rng),
		Partition: randWireString(rng),
		Environ:   randWireString(rng),
		Spec:      randWireString(rng),
		JobID:     rng.Intn(1<<40) - 1<<39,
		Result:    []string{"pass", "fail", randWireString(rng)}[rng.Intn(3)],
	}
	switch rng.Intn(4) {
	case 0: // nil
	case 1:
		e.FOMs = map[string]fom.Value{}
	default:
		e.FOMs = map[string]fom.Value{}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			unit := ""
			if rng.Intn(3) > 0 {
				unit = randWireString(rng)
			}
			name := randWireString(rng)
			e.FOMs[name] = fom.Value{Name: name, Value: randWireFloat(rng), Unit: unit}
		}
	}
	switch rng.Intn(4) {
	case 0: // nil
	case 1:
		e.Extra = map[string]string{}
	default:
		e.Extra = map[string]string{}
		for n := 1 + rng.Intn(16); n > 0; n-- {
			e.Extra[randWireString(rng)] = randWireString(rng)
		}
	}
	return e
}

// TestWireMatchesReference is the seeded property test: select bodies of
// 0, 1 and 100 random entries, byte for byte against the reference.
func TestWireMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{0, 1, 100} {
			entries := make([]*perflog.Entry, n)
			for i := range entries {
				entries[i] = randWireEntry(rng)
			}
			t.Run(fmt.Sprintf("seed%d/n%d", seed, n), func(t *testing.T) { checkSelect(t, entries) })
		}
	}
	// The shapes the daemon actually serves, and the hand-picked edges
	// one at a time.
	checkSelect(t, corpusEntries(100))
	checkSelect(t, liveEntries(100))
	for _, f := range wireFloats {
		checkSelect(t, []*perflog.Entry{cacheEntryFor("archer2", "hpgmg-fv", 1, f)})
	}
	for _, s := range wireStrings {
		e := cacheEntryFor(s, s, 1, 1)
		e.FOMs = map[string]fom.Value{s: {Name: s, Value: 1, Unit: s}}
		e.Extra = map[string]string{s: s, s + "2": ""}
		checkSelect(t, []*perflog.Entry{e})
	}
	for _, tm := range []time.Time{{}, time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(9999, 12, 31, 23, 59, 59, 999999999, wireZones[2])} {
		e := cacheEntryFor("archer2", "hpgmg-fv", 1, 1)
		e.Time = tm
		checkSelect(t, []*perflog.Entry{e})
	}
}

// FuzzEntryJSON checks the same contract on fuzzed entries.
func FuzzEntryJSON(f *testing.F) {
	for i, s := range wireStrings {
		fl := wireFloats[i%len(wireFloats)]
		f.Add(s, "archer2", "l0", fl, "MB/s", int64(1700000000+i), int64(i*123456789), 3600*(i%5-2), i, uint8(i))
	}
	f.Add("x", "y", "z", math.NaN(), "", int64(-62135596800), int64(0), 0, 0, uint8(3))
	f.Add("x", "y", "z", math.Inf(-1), "u", int64(253402300800), int64(1), 0, 0, uint8(7))
	f.Add("x", "y", "z", 1.0, "u", int64(0), int64(0), 25*3600, 0, uint8(15))
	f.Fuzz(func(t *testing.T, a, b, c string, v float64, unit string, sec, nsec int64, offset, job int, shape uint8) {
		if math.Abs(v) == sentinel {
			t.Skip("the sentinel value itself")
		}
		e := &perflog.Entry{
			Time:      time.Unix(sec, nsec).In(time.FixedZone(c, offset)),
			Benchmark: a, System: b, Partition: c, Environ: a + b, Spec: b + c,
			JobID: job, Result: c,
		}
		switch shape & 3 {
		case 1:
			e.FOMs = map[string]fom.Value{}
		case 2, 3:
			e.FOMs = map[string]fom.Value{a: {Name: a, Value: v, Unit: unit}, b: {Name: b, Value: -v}}
		}
		switch shape >> 2 & 3 {
		case 1:
			e.Extra = map[string]string{}
		case 2, 3:
			e.Extra = map[string]string{a: b, c: unit, unit: ""}
		}
		entries := []*perflog.Entry{e}
		if shape&16 != 0 {
			entries = append(entries, cacheEntryFor(a, b, job, v))
		}
		checkSelect(t, entries)
	})
}

// TestNonFiniteAndUnencodable: a NaN or ±Inf FOM is null in a select and
// a 500 with the uniform error body from an aggregate (encoding/json
// refuses it); neither route answers 200 with an empty body. A timestamp
// RFC 3339 cannot carry is a 500 too, from a select and from the run
// views.
func TestNonFiniteAndUnencodable(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{PerflogRoot: dir + "/perflogs", InstallTree: dir + "/install", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 95} {
		if err := srv.Store().Append("archer2", "hpgmg-fv", cacheEntryFor("archer2", "hpgmg-fv", i+1, v)); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", path, ct)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	code, body := get("/v1/query?limit=100")
	var sel struct {
		Count   int `json:"count"`
		Entries []struct {
			FOMs map[string]struct {
				Value *float64 `json:"value"`
			} `json:"foms"`
		} `json:"entries"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &sel) != nil || sel.Count != 4 {
		t.Fatalf("select: %d %s", code, body)
	}
	nulls := 0
	for _, e := range sel.Entries {
		if e.FOMs["l0"].Value == nil {
			nulls++
		} else if *e.FOMs["l0"].Value != 95 {
			t.Errorf("finite FOM read back as %v", *e.FOMs["l0"].Value)
		}
	}
	if nulls != 3 {
		t.Errorf("select: %d null FOMs, want 3:\n%s", nulls, body)
	}

	code, body = get("/v1/query?fom=l0&agg=mean&group_by=system")
	var agg struct {
		Error string `json:"error"`
	}
	if code != http.StatusInternalServerError || json.Unmarshal(body, &agg) != nil || agg.Error == "" {
		t.Fatalf("aggregate over a NaN: %d %s, want 500 with an error body", code, body)
	}

	e := cacheEntryFor("archer2", "hpgmg-fv", 1, 1)
	e.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	rec := httptest.NewRecorder()
	writeEntries(rec, []*perflog.Entry{cacheEntryFor("archer2", "hpgmg-fv", 1, 1), e})
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &agg) != nil || !strings.Contains(agg.Error, "year") {
		t.Fatalf("year 10000: %d %s, want 500 with an error body", rec.Code, rec.Body)
	}

	// A completed run carrying such an entry: its view and the listing.
	srv.mu.Lock()
	srv.runs["run-year10000"] = &Run{ID: "run-year10000", Benchmark: "hpgmg-fv", System: "archer2",
		status: StatusCompleted, submitted: time.Now(), entry: e}
	srv.order = append(srv.order, "run-year10000")
	srv.mu.Unlock()
	for _, path := range []string{"/v1/runs/run-year10000", "/v1/runs"} {
		agg.Error = ""
		code, body = get(path)
		if code != http.StatusInternalServerError || json.Unmarshal(body, &agg) != nil || !strings.Contains(agg.Error, "year") {
			t.Fatalf("%s with year 10000: %d %s, want 500 with an error body", path, code, body)
		}
	}
}

// corpusEntries are n entries of the end-to-end benchmark's corpus.
func corpusEntries(n int) []*perflog.Entry {
	c := gen.NewCorpus(7, n)
	out := make([]*perflog.Entry, n)
	for i := range out {
		out[i] = c.Entry(n - 1 - i) // newest first, as a limit= select answers
	}
	return out
}

// liveEntries are n entries shaped like the runner's: three FOMs and
// its sixteen extras (layout, provenance, energy, stage timings).
func liveEntries(n int) []*perflog.Entry {
	out := make([]*perflog.Entry, n)
	for i := range out {
		s := func(x float64) string { return fmt.Sprintf("%.6f", x*float64(i+1)) }
		out[i] = &perflog.Entry{
			Time:      time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC).Add(time.Duration(i)*time.Second + 123456789),
			Benchmark: "babelstream-omp", System: "archer2", Partition: "compute", Environ: "gcc",
			Spec: "babelstream@4.0%gcc@11.2.0 model=omp", JobID: 100000 + i, Result: "pass",
			FOMs: map[string]fom.Value{
				"copy_mbps":  {Name: "copy_mbps", Value: 181234.5 + float64(i), Unit: "MB/s"},
				"triad_mbps": {Name: "triad_mbps", Value: 201987.25 - float64(i), Unit: "MB/s"},
				"dot_mbps":   {Name: "dot_mbps", Value: 170001.125, Unit: "MB/s"},
			},
			Extra: map[string]string{
				"num_tasks": "1", "num_tasks_per_node": "1", "num_cpus_per_task": "128",
				"job_runtime_s": s(0.8), "build_hash": "3f9a0c1d2e4b5a6f", "build_state": "cached",
				"builds": "0 built, 3 cached, 1 external", "simulated_build_s": "0.000",
				"est_energy_j": "512.3", "stage_resolve_s": s(1e-5), "stage_concretize_s": s(2e-4),
				"stage_build_s": s(3e-4), "stage_schedule_s": s(1e-4), "stage_queue_s": s(0.1),
				"stage_execute_s": s(0.8), "stage_extract_s": s(2e-5),
			},
		}
	}
	return out
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// selectResponseAllocs bounds the allocations of one select response,
// recorder included: measured 11, plus one.
const selectResponseAllocs = 12

// TestSelectResponseCost is the select response's count gate: the
// allocations do not depend on the number of entries and stay under a
// fixed bound, and the bytes allocated stay under twice the body.
func TestSelectResponseCost(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is randomized under the race detector")
	}
	entries := corpusEntries(100)
	respond := func(n int) func() {
		return func() { writeEntries(httptest.NewRecorder(), entries[:n]) }
	}
	small := testing.AllocsPerRun(100, respond(10))
	big := testing.AllocsPerRun(100, respond(100))
	if small != big || big > selectResponseAllocs {
		t.Errorf("allocations: %v for 10 entries, %v for 100; want equal and at most %d", small, big, selectResponseAllocs)
	}

	rec := httptest.NewRecorder()
	writeEntries(rec, entries)
	body := rec.Body.Len()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		respond(100)()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= uint64(2*body) {
		t.Errorf("%d bytes allocated per %d-byte response; want under twice the body", per, body)
	}
}

// TestWirePoolDropsLargeBuffers: a buffer an unbounded select grew past
// the cap goes to the garbage collector, not back into the pool.
func TestWirePoolDropsLargeBuffers(t *testing.T) {
	big := &wire{b: make([]byte, maxPooledWire+1)}
	big.free()
	for range 4 {
		if w := getWire(); cap(w.b) > maxPooledWire {
			t.Fatalf("pool handed out a %d-byte buffer", cap(w.b))
		}
	}
}

// BenchmarkSelectResponse times GET /v1/query?limit=100's response
// writing alone, the wire encoder against the reference path, on the
// benchmark corpus's entries and on the runner's.
func BenchmarkSelectResponse(b *testing.B) {
	for _, set := range []struct {
		name    string
		entries []*perflog.Entry
	}{{"corpus", corpusEntries(100)}, {"live", liveEntries(100)}} {
		b.Run(set.name+"/encoder", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				writeEntries(httptest.NewRecorder(), set.entries)
			}
		})
		b.Run(set.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				writeSelectRef(httptest.NewRecorder(), set.entries)
			}
		})
	}
}
