package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fom"
	"repro/internal/perflog"
	"repro/internal/perfstore"
	"repro/internal/postprocess"
)

// TestReadersAgree: every path that reads a perflog tree serves the same
// entries from it — the store booted from text, the store rebooted from
// its sealed tier, perflog.ReadTree, postprocess.LoadFrame, and perfplot
// table, bar and csv. Each tree holds one hazard: a bad middle line, an
// unterminated last line cut inside its FOM, a comment, and a line
// longer than a 1 MiB read.
func TestReadersAgree(t *testing.T) {
	line := func(job int, extra string) string {
		e := &perflog.Entry{
			Time:      time.Date(2023, 7, 7, 10+job, 0, 0, 0, time.UTC),
			Benchmark: "babelstream",
			System:    "archer2",
			JobID:     job,
			Result:    "pass",
			FOMs:      map[string]fom.Value{"Triad": {Name: "Triad", Value: 223456.75, Unit: "MB/s"}},
			Extra:     map[string]string{},
		}
		if extra != "" {
			e.Extra["blob"] = extra
		}
		return e.Line() + "\n"
	}
	torn := line(2, "")
	torn = torn[:strings.Index(torn, "Triad=")+len("Triad=22345")]
	for _, c := range []struct {
		name string
		text string
		want []string // job ids served
	}{
		{"bad middle line", line(1, "") + "this is not a perflog line\n" + line(2, ""), []string{"1", "2"}},
		{"unterminated last line", line(1, "") + torn, []string{"1"}},
		{"comment", "# perflog for babelstream\n" + line(1, "") + line(2, ""), []string{"1", "2"}},
		{"line over 1 MiB", line(1, strings.Repeat("x", 3<<20/2)) + line(2, ""), []string{"1", "2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			path := filepath.Join(root, "archer2", "babelstream.log")
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(c.text), 0o644); err != nil {
				t.Fatal(err)
			}
			check := func(reader string, jobs []string) {
				t.Helper()
				slices.Sort(jobs) // a bar chart orders by value
				if !slices.Equal(jobs, c.want) {
					t.Errorf("%s serves jobs %v, want %v", reader, jobs, c.want)
				}
			}
			entryJobs := func(entries []*perflog.Entry) []string {
				var jobs []string
				for _, e := range entries {
					jobs = append(jobs, strconv.Itoa(e.JobID))
				}
				return jobs
			}

			s := perfstore.Open(root)
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			check("Store.Sync", entryJobs(s.Select(perfstore.Query{})))

			data := t.TempDir()
			sealed, err := perfstore.OpenTiered(root, data)
			if err == nil {
				err = sealed.Sync()
			}
			if err == nil {
				_, err = sealed.Seal()
			}
			if err != nil {
				t.Fatal(err)
			}
			rebooted, err := perfstore.OpenTiered(root, data)
			if err == nil {
				err = rebooted.Sync()
			}
			if err != nil {
				t.Fatal(err)
			}
			check("OpenTiered after Seal", entryJobs(rebooted.Select(perfstore.Query{})))

			entries, err := perflog.ReadTree(root)
			if err != nil {
				t.Fatal(err)
			}
			check("ReadTree", entryJobs(entries))

			frame, err := postprocess.LoadFrame(root)
			if err != nil {
				t.Fatal(err)
			}
			col, err := frame.Col("job")
			if err != nil {
				t.Fatal(err)
			}
			var jobs []string
			for r := 0; r < frame.NumRows(); r++ {
				jobs = append(jobs, col.Str(r))
			}
			check("LoadFrame", jobs)

			out, err := capture(t, func() error { return run([]string{"table", "--perflog", root, "--columns", "job"}) })
			if err != nil {
				t.Fatal(err)
			}
			check("perfplot table", strings.Fields(out)[1:])

			cfg := filepath.Join(t.TempDir(), "plot.yaml")
			if err := os.WriteFile(cfg, []byte("x: job\ny: Triad\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			out, err = capture(t, func() error { return run([]string{"bar", "--perflog", root, "--config", cfg}) })
			if err != nil {
				t.Fatal(err)
			}
			jobs = nil
			for _, bar := range strings.Split(strings.TrimSpace(out), "\n") {
				label, _, _ := strings.Cut(bar, "|")
				jobs = append(jobs, strings.TrimSpace(label))
			}
			check("perfplot bar", jobs)

			// csv goes to a file: the blob would fill capture's pipe.
			csvPath := filepath.Join(t.TempDir(), "out.csv")
			if _, err := capture(t, func() error { return run([]string{"csv", "--perflog", root, "--out", csvPath}) }); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := csv.NewReader(f).ReadAll()
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			at := slices.Index(rows[0], "job")
			jobs = nil
			for _, row := range rows[1:] {
				jobs = append(jobs, row[at])
			}
			check("perfplot csv", jobs)
		})
	}
}
