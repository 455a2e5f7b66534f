package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the report needs: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first, second and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method), which is how the driver judges a metric's spread.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// readResults collects, per metric, the values of every result line (the
// JSON object a run ends with) in the files, in order.
func readResults(files []string) (values map[string][]float64, units map[string]string, err error) {
	values, units = map[string][]float64{}, map[string]string{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var res Result
			if !strings.HasPrefix(sc.Text(), "{") || json.Unmarshal(sc.Bytes(), &res) != nil {
				continue
			}
			if !res.Correct || res.Failed != 0 {
				f.Close()
				return nil, nil, fmt.Errorf("%s: a run with failures (correct=%v failed=%d) cannot be part of a baseline", path, res.Correct, res.Failed)
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, nil, err
		}
	}
	return values, units, nil
}

// reportSpread judges the benchmark's own noise the way the driver
// does. The result files are two sets of runs of the same code, the
// first half and the second half of the arguments. For every
// (workload, metric) pair it prints each set's median and spread — the
// distance between the first and third quartile as a share of the
// median — and how much worse the second median is than the first. It
// is an error if a gated metric's spread exceeds its bound in
// BENCHMARK.json, or if the second median is worse than the first by
// more than the bound: the benchmark would then reject a change that
// changed nothing. A spread above a third of the bound is marked, not
// failed.
func reportSpread(benchmarkPath string, files []string, w io.Writer) error {
	if len(files) < 4 || len(files)%2 != 0 {
		return fmt.Errorf("-report needs two sets of result files of equal size (at least 2 each), got %d files", len(files))
	}
	data, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	bound, higher := map[string]float64{}, map[string]bool{}
	for _, m := range bf.EndToEnd {
		bound[m.Name], higher[m.Name] = m.Bound, m.Better == "higher"
	}
	first, units, err := readResults(files[:len(files)/2])
	if err != nil {
		return err
	}
	second, _, err := readResults(files[len(files)/2:])
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "| workload.metric | unit | runs | median 1 | IQR/median 1 | median 2 | IQR/median 2 | 2 worse than 1 by | range/median | bound | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	var failed []string
	for _, k := range keys {
		a, b := sorted(first[k]), sorted(second[k])
		if len(a) < 2 || len(b) < 2 {
			return fmt.Errorf("%s: %d and %d values; need at least 2 in each set", k, len(a), len(b))
		}
		a1, amed, a3 := quartiles(a)
		b1, bmed, b3 := quartiles(b)
		spreadA, spreadB := (a3-a1)/amed, (b3-b1)/bmed
		worse := (bmed - amed) / amed
		name := k[strings.LastIndex(k, ".")+1:]
		if higher[name] {
			worse = -worse
		}
		all := sorted(append(append([]float64(nil), a...), b...))
		_, med, _ := quartiles(all)
		verdict := "diagnostic"
		if bd, gated := bound[name]; gated {
			spread := max(spreadA, spreadB)
			switch {
			case name != "setup_s" && spread > bd, worse > bd:
				verdict = "FAIL"
				failed = append(failed, k)
			case spread > bd/3:
				verdict = "within bound"
			default:
				verdict = "within a third"
			}
		}
		fmt.Fprintf(w, "| %s | %s | %d+%d | %.4g | %.1f%% | %.4g | %.1f%% | %+.1f%% | %.1f%% | %.0f%% | %s |\n",
			k, units[k], len(a), len(b), amed, 100*spreadA, bmed, 100*spreadB, 100*worse,
			100*(all[len(all)-1]-all[0])/med, 100*bound[name], verdict)
	}
	if len(failed) > 0 {
		return fmt.Errorf("noisier than the bound allows: %s", strings.Join(failed, ", "))
	}
	return nil
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
