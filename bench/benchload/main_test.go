package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/bench/measure"
)

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// lastResult parses the JSON line a run ends with.
func lastResult(t *testing.T, path string) Result {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var res Result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return res
}

// capture runs benchload with its standard output in a file.
func capture(t *testing.T, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = old
	f.Close()
	if err != nil {
		out, _ := os.ReadFile(path)
		t.Fatalf("benchload %v: %v\n%s", args, err, out)
	}
	return path
}

func sameNames(t *testing.T, what string, got map[string]Metric, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json names %s, the run did not report it", what, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		}
	}
	if len(got) != len(want) {
		var names []string
		for k := range got {
			names = append(names, k)
		}
		sort.Strings(names)
		t.Errorf("%s: run reported %d metrics, BENCHMARK.json lists %d: %v", what, len(got), len(want), names)
	}
}

// The smoke run drives every workload end to end against a real benchd
// subprocess on a tiny corpus: every output check must hold, and each
// workload must report exactly the end-to-end metrics BENCHMARK.json
// promises.
func TestSmokeEndToEnd(t *testing.T) {
	c := loadContract(t)
	out := t.TempDir()
	res := lastResult(t, capture(t, "-smoke", "-out", out, "-seed", "3"))
	if !res.Correct || res.Failed != 0 || res.Attempted < 40*len(workloads) {
		t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, benchload has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		got := map[string]Metric{}
		for k, m := range res.Metrics {
			if name, ok := strings.CutPrefix(k, w.Name+"."); ok {
				got[name] = m
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", k, m.Value)
				}
			}
		}
		sameNames(t, w.Name, got, c.EndToEnd)
		if _, err := os.Stat(filepath.Join(out, "raw-"+w.Name+".json")); err != nil {
			t.Errorf("%s: raw samples not kept: %v", w.Name, err)
		}
	}
}

// The traced smoke run must report exactly BENCHMARK.json's per-layer
// metrics and leave a span file whose spans nest.
func TestSmokeTrace(t *testing.T) {
	c := loadContract(t)
	out := t.TempDir()
	res := lastResult(t, capture(t, "-smoke", "-out", out, "-workload", "mixed", "-trace", "1"))
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	sameNames(t, "trace", res.Metrics, c.PerLayer)
	data, err := os.ReadFile(filepath.Join(out, "trace-mixed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []measure.Span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int]measure.Span{}
	names := map[string]bool{}
	for _, s := range spans {
		byID[s.ID] = s
		names[s.Name] = true
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || p.Op != s.Op) {
			t.Fatalf("span %+v: parent missing or of another op", s)
		}
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	for _, want := range []string{"op.submit", "core.run", "concretize.concretize", "perflog.writer_append",
		"perfstore.add_batch", "perfstore.aggregate_sealed", "eventbus.deliver", "service.select_handler"} {
		if !names[want] {
			t.Errorf("no span named %s in the trace", want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestParseMetrics(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nbenchd_query_cache_hits_total{kind=\"aggregate\"} 3\n" +
		"benchd_query_cache_hits_total{kind=\"regressions\"} 2\nperflog_commit_entries_sum 15\nbenchd_query_cache_hits_total_other 100\n"
	s, err := parseMetrics(bufio.NewScanner(strings.NewReader(text)))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("benchd_query_cache_hits_total"); got != 5 {
		t.Errorf("family sum %v, want 5", got)
	}
	if got := s.sum("perflog_commit_entries_sum"); got != 15 {
		t.Errorf("unlabelled series %v, want 15", got)
	}
}

func TestReduce(t *testing.T) {
	raw := rawData{Workload: "w", SetupS: []float64{3, 1, 2}, BootMS: []float64{10, 30, 20}, RSSMB: []float64{5, 7, 6}, DiskBytesPerEntry: 200}
	for i := 0; i < 20; i++ {
		raw.Ops = append(raw.Ops, opSample{Phase: 1, Index: i, Kind: "select", Warmup: i < 2, Start: int64(i) * 1e6, Dur: 1e6})
	}
	raw.Ops = append(raw.Ops, opSample{Phase: 2, Index: 0, Kind: "submit", Start: 0, Dur: 4e6, Lag: 2e5})
	raw.Ops = append(raw.Ops, opSample{Phase: 2, Index: 1, Kind: "submit", Start: 4e6, Dur: 6e6, Lag: 4e5})
	res := reduce(raw)
	want := map[string]float64{
		"setup_s": 2, "boot_first_query_ms": 20, "rss_mb": 5.2, "disk_bytes_per_entry": 200,
		"select_p50_ms": 1, "run_done_p50_ms": 5,
	}
	for k, w := range want {
		if got := res.Metrics[k].Value; got < w*(1-1e-9) || got > w*(1+1e-9) {
			t.Errorf("%s = %v, want %v", k, got, w)
		}
	}
	if res.Attempted != 22 || res.Failed != 0 || !res.Correct {
		t.Errorf("attempted %d failed %d correct %v", res.Attempted, res.Failed, res.Correct)
	}
	raw.Ops[5].Failed = true
	if res := reduce(raw); res.Failed != 1 || res.Correct {
		t.Errorf("a failed op must count and fail the run: %+v", res)
	}
}
