// Command perfplot assimilates perflogs and produces analysis artifacts
// (Principle 6): tables, text/SVG bar charts, CSV exports, and
// performance-regression reports.
//
//	perfplot table   --perflog perflogs
//	perfplot bar     --perflog perflogs --config plot.yaml [--svg out.svg]
//	perfplot csv     --perflog perflogs --out results.csv
//	perfplot regress --perflog perflogs --fom l0 --group system,benchmark
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/perfstore"
	"repro/internal/postprocess"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfplot:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("no command")
	}
	switch args[0] {
	case "table":
		return cmdTable(args[1:])
	case "bar":
		return cmdBar(args[1:])
	case "csv":
		return cmdCSV(args[1:])
	case "regress":
		return cmdRegress(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  perfplot table   --perflog DIR                     print the assimilated frame
                   [--columns benchmark,stage_*]     project columns (trailing * = prefix)
                   [--system S] [--benchmark B]      filter through the indexed query path
                   [--since RFC3339] [--limit N]     time window / most recent N entries
                   [--data-dir DIR]                  read benchd's sealed segment store
  perfplot bar     --perflog DIR --config FILE       render a configured bar chart
                   [--svg FILE]                      also write an SVG version
  perfplot csv     --perflog DIR --out FILE          export the frame as CSV
  perfplot regress --perflog DIR --fom COL           flag performance regressions
                   [--group cols] [--tolerance 0.1] [--window N]
                   [--rsd-gate R]                    repetition sets with RSD > R print
                                                     as UNSTABLE and are excluded from
                                                     baselines (0 = default 0.10)

Every subcommand reads the tree as benchd does: whole lines only, and a
line that does not parse is skipped without a message, costing that line
alone (benchd's /healthz counts such lines).
`)
}

// loadStore ingests the perflog tree through perfstore — the same
// storage and query path the benchd daemon serves, so CLI and service
// read identical data. With a non-empty dataDir it opens the same
// tiered segment store benchd maintains, recovering sealed entries
// from segment headers and parsing only the perflog tail.
func loadStore(root, dataDir string) (*perfstore.Store, error) {
	var store *perfstore.Store
	if dataDir != "" {
		var err error
		if store, err = perfstore.OpenTiered(root, dataDir); err != nil {
			return nil, err
		}
	} else {
		store = perfstore.Open(root)
	}
	if err := store.Sync(); err != nil {
		return nil, err
	}
	if store.Len() == 0 {
		return nil, fmt.Errorf("no perflog entries under %s", root)
	}
	return store, nil
}

func cmdTable(args []string) error {
	fs := flag.NewFlagSet("table", flag.ContinueOnError)
	root := fs.String("perflog", "perflogs", "perflog root")
	dataDir := fs.String("data-dir", "", "benchd segment store directory (reads sealed segments instead of re-parsing)")
	columns := fs.String("columns", "", "comma-separated columns to show; a trailing * matches a prefix")
	system := fs.String("system", "", "only entries from this system")
	benchmark := fs.String("benchmark", "", "only entries for this benchmark")
	since := fs.String("since", "", "only entries at or after this RFC3339 timestamp")
	limit := fs.Int("limit", 0, "only the most recent N matching entries (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *limit < 0 {
		return fmt.Errorf("--limit must be non-negative")
	}
	q := perfstore.Query{System: *system, Benchmark: *benchmark, Limit: *limit}
	if *since != "" {
		t, err := time.Parse(time.RFC3339, *since)
		if err != nil {
			return fmt.Errorf("bad --since timestamp %q (want RFC3339)", *since)
		}
		q.Since = t
	}
	store, err := loadStore(*root, *dataDir)
	if err != nil {
		return err
	}
	entries := store.Select(q)
	if len(entries) == 0 {
		return fmt.Errorf("no perflog entries match the filters")
	}
	f, err := postprocess.ToFrame(entries)
	if err != nil {
		return err
	}
	if *columns != "" {
		// e.g. --columns benchmark,system,job,stage_* shows where each
		// run's time went, from the stage extras the runner records.
		var names []string
		for _, c := range strings.Split(*columns, ",") {
			names = append(names, strings.TrimSpace(c))
		}
		if f, err = f.SelectColumns(names...); err != nil {
			return err
		}
	}
	fmt.Print(f.String())
	return nil
}

func cmdBar(args []string) error {
	fs := flag.NewFlagSet("bar", flag.ContinueOnError)
	root := fs.String("perflog", "perflogs", "perflog root")
	configPath := fs.String("config", "", "plot configuration file")
	svgPath := fs.String("svg", "", "write an SVG chart to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		return fmt.Errorf("--config is required")
	}
	text, err := os.ReadFile(*configPath)
	if err != nil {
		return err
	}
	cfg, err := postprocess.ParsePlotConfig(string(text))
	if err != nil {
		return err
	}
	f, err := postprocess.LoadFrame(*root)
	if err != nil {
		return err
	}
	chart, err := postprocess.BarChart(f, cfg)
	if err != nil {
		return err
	}
	fmt.Print(chart)
	if *svgPath != "" {
		svg, err := postprocess.BarChartSVG(f, cfg)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *svgPath)
	}
	return nil
}

func cmdCSV(args []string) error {
	fs := flag.NewFlagSet("csv", flag.ContinueOnError)
	root := fs.String("perflog", "perflogs", "perflog root")
	out := fs.String("out", "", "output CSV path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := postprocess.LoadFrame(*root)
	if err != nil {
		return err
	}
	if *out == "" {
		return f.WriteCSV(os.Stdout)
	}
	if err := f.SaveCSV(*out); err != nil {
		return err
	}
	fmt.Println("wrote", *out)
	return nil
}

func cmdRegress(args []string) error {
	fs := flag.NewFlagSet("regress", flag.ContinueOnError)
	root := fs.String("perflog", "perflogs", "perflog root")
	dataDir := fs.String("data-dir", "", "benchd segment store directory (reads sealed segments instead of re-parsing)")
	fomCol := fs.String("fom", "", "FOM column to check")
	group := fs.String("group", "system,benchmark", "comma-separated grouping columns")
	tolerance := fs.Float64("tolerance", 0.10, "fractional drop that counts as a regression")
	window := fs.Int("window", 0, "sliding baseline size in runs (0 = all earlier runs)")
	rsdGate := fs.Float64("rsd-gate", 0, "RSD above which a repetition set is 'unstable' (0 = default 0.10, <0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fomCol == "" {
		return fmt.Errorf("--fom is required")
	}
	store, err := loadStore(*root, *dataDir)
	if err != nil {
		return err
	}
	store.RSDGate = *rsdGate
	reports, err := store.Regressions(perfstore.Query{
		FOM:     *fomCol,
		GroupBy: strings.Split(*group, ","),
	}, *tolerance, *window)
	if err != nil {
		return err
	}
	anyFlagged := false
	for _, r := range reports {
		marker := "ok      "
		if r.Flagged {
			marker = "REGRESSED"
			anyFlagged = true
		}
		switch r.Method {
		case perfstore.MethodVariance:
			// Variance-gated: the latest repetition set is too noisy to
			// judge — surfaced, never flagged, never an error exit (noise
			// is an instrumentation problem, not a regression).
			fmt.Printf("%-9s %-40s latest %.3f rsd %.1f%% (n=%d) too noisy to judge\n",
				"UNSTABLE", r.Group, r.Latest, r.LatestRSD*100, r.LatestN)
		case perfstore.MethodCI:
			fmt.Printf("%-9s %-40s baseline %.3f [%.3f, %.3f] -> latest %.3f [%.3f, %.3f] n=%d (%+.1f%%)\n",
				marker, r.Group, r.Baseline, r.BaselineLo, r.BaselineHi,
				r.Latest, r.LatestLo, r.LatestHi, r.LatestN, r.Change*100)
		default:
			// Tolerance fallback: byte-for-byte the pre-repetition row, so
			// existing pipelines scraping this output see no change.
			fmt.Printf("%-9s %-40s baseline %.3f -> latest %.3f (%+.1f%%)\n",
				marker, r.Group, r.Baseline, r.Latest, r.Change*100)
		}
	}
	if anyFlagged {
		return fmt.Errorf("performance regressions detected")
	}
	return nil
}
