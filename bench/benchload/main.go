// Command benchload is benchd's end-to-end benchmark: it builds
// cmd/benchd from the working tree, runs it as a subprocess, drives it
// over loopback HTTP with request sequences generated from a seed,
// checks what comes back, and prints every metric by name.
//
//	go run ./bench/benchload -seed 1                      # all four workloads
//	go run ./bench/benchload -workload mixed -seed 7      # one workload
//	go run ./bench/benchload -workload ingest -trace 1    # its per-layer walk
//	go run ./bench/benchload -report bench/out/set-*.json # spread across runs
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics. See bench/README.md for what each
// workload and metric is for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"

	"repro/bench/daemon"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object a run ends with.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

var workloads = []string{"ingest", "query_head", "query_sealed", "mixed"}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchload", flag.ContinueOnError)
	workload := fs.String("workload", "all", "ingest, query_head, query_sealed, mixed, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "measuring budget; op counts scale with it (counts are fixed, not time-boxed)")
	trace := fs.Int("trace", 0, "1 = run the per-layer walk instead of the end-to-end measurement")
	smoke := fs.Bool("smoke", false, "tiny corpus and ~50 ops per workload (for tests)")
	out := fs.String("out", "bench/out", "directory for the benchd binary, daemon logs, traces and scratch state")
	report := fs.Bool("report", false, "summarize the spread across result files given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	if *report {
		return reportSpread(filepath.Join(root, "BENCHMARK.json"), fs.Args(), os.Stdout)
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	names := workloads
	if *workload != "all" {
		if !slices.Contains(workloads, *workload) {
			return fmt.Errorf("unknown workload %q (want one of %s, or all)", *workload, strings.Join(workloads, ", "))
		}
		names = []string{*workload}
	}
	outDir := *out
	if !filepath.IsAbs(outDir) {
		outDir = filepath.Join(root, outDir)
	}
	bin, err := daemon.Build(root, filepath.Join(outDir, "bin"))
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// An interrupted run still stops its daemon and removes its scratch.
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() { signal.Stop(sig); close(done) }()
	go func() {
		select {
		case <-sig:
			killLive()
			os.RemoveAll(work)
			os.Exit(1)
		case <-done:
		}
	}()

	total := Result{Correct: true, Metrics: map[string]Metric{}}
	for _, name := range names {
		e := &env{
			bin: bin, out: outDir, work: work, workload: name,
			seed: *seed, size: sizesFor(*seconds, *smoke), smoke: *smoke,
		}
		var res Result
		if *trace != 0 {
			res, err = e.traceRun()
		} else {
			res, err = e.measure()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printResult(name, res)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !total.Correct {
		return errors.New("output checks failed (see above)")
	}
	return nil
}

// printResult lists one workload's metrics by name with their units.
func printResult(workload string, res Result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("== %s: attempted %d, failed %d (share %.4f), correct %v\n",
		workload, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct)
	for _, k := range names {
		fmt.Printf("  %-44s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// moduleRoot finds the directory holding go.mod at or above the working
// directory: the driver runs the command from the checkout's root, go
// test from the package's directory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod at or above the working directory: run benchload from the repository")
		}
		dir = parent
	}
}
