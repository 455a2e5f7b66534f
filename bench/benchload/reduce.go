package main

import (
	"fmt"
	"sort"

	"repro/bench/gen"
	"repro/bench/measure"
)

// gated names the latency metric of each op class that has one. The
// aggregate class has none: its latency is memory-bound work fanned out
// over both cores, and on the shared reference box the same code's
// median moved by a quarter to a third between sets of runs an hour
// apart, more than any bound the contract allows. It is printed with
// the other diagnostics and measured in-process by -trace.
var gated = map[gen.Kind]string{
	gen.Submit: "run_done_p50_ms", gen.Select: "select_p50_ms", gen.Regress: "regress_p50_ms",
}

// reduce turns a run's raw samples into its reported metrics, and prints
// the diagnostics that are not gated: per class the median, the highest
// percentile with at least ten samples beyond it and the count;
// throughput (with one closed-loop client it is the inverse of mean
// latency, and repeats worse than the medians); the watch lag (a tenth
// of a millisecond, set by how fast the kernel wakes the reader); and
// the high-water mark of the daemon's memory.
func reduce(raw rawData) Result {
	res := Result{Correct: true, Metrics: map[string]Metric{
		"setup_s":              {measure.Median(raw.SetupS), "s"},
		"boot_first_query_ms":  {measure.Median(raw.BootMS), "ms"},
		"rss_mb":               {lowerDecile(raw.RSSMB), "MiB"},
		"disk_bytes_per_entry": {raw.DiskBytesPerEntry, "B"},
	}}
	lat := map[string][]float64{}
	var lag []float64
	type side struct {
		phase int
		runs  bool // the phase's runs, or its queries
	}
	type tally struct {
		n           int
		first, last int64
	}
	walls := map[side]*tally{}
	for _, op := range raw.Ops {
		res.Attempted++
		if op.Failed {
			res.Failed++
			res.Correct = false
			continue
		}
		if op.Warmup {
			continue
		}
		lat[op.Kind] = append(lat[op.Kind], float64(op.Dur)/1e6)
		isRun := op.Kind == gen.Submit.String()
		if isRun {
			lag = append(lag, float64(op.Lag)/1e6)
		}
		t := walls[side{op.Phase, isRun}]
		if t == nil {
			t = &tally{first: op.Start}
			walls[side{op.Phase, isRun}] = t
		}
		t.n++
		t.last = op.Start + op.Dur
	}
	for _, k := range gen.Kinds {
		s := measure.Summarize(lat[k.String()])
		if name, ok := gated[k]; ok {
			res.Metrics[name] = Metric{s.P50, "ms"}
		}
		fmt.Printf("  [%s] %-9s n=%-5d p50=%.3fms p%g=%.3fms\n", raw.Workload, k, s.N, s.P50, s.TailP, s.Tail)
	}
	for _, isRun := range []bool{true, false} {
		n, wall := 0, 0.0
		for key, t := range walls {
			if key.runs == isRun {
				n, wall = n+t.n, wall+float64(t.last-t.first)/1e9
			}
		}
		fmt.Printf("  [%s] %s per second: %.1f\n", raw.Workload, map[bool]string{true: "runs", false: "queries"}[isRun], float64(n)/wall)
	}
	fmt.Printf("  [%s] watch lag (event stamped -> read by the client): n=%d p50=%.3fms\n", raw.Workload, len(lag), measure.Median(lag))
	fmt.Printf("  [%s] rss: %d samples, median %.1f MiB, high-water mark %.1f MiB\n",
		raw.Workload, len(raw.RSSMB), measure.Median(raw.RSSMB), raw.PeakMB)
	return res
}

// lowerDecile is the resident size the daemon keeps returning to while
// it serves. The high-water mark is not the metric: one collection that
// overlaps a burst of allocation raised it by a third in about one
// query_head run in five, with nothing else about the run different.
func lowerDecile(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return measure.Percentile(s, 10)
}
