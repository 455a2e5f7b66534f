package perflog

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fom"
)

// lineReference is the pre-optimization Line renderer (field slice +
// strings.Join), kept verbatim so BenchmarkEntryLine measures the
// rewrite against the real baseline and TestLineMatchesReference pins
// byte-for-byte compatibility.
func lineReference(e *Entry) string {
	var parts []string
	add := func(k, v string) {
		parts = append(parts, k+"="+escape(v))
	}
	add("ts", e.Time.UTC().Format(time.RFC3339))
	add("benchmark", e.Benchmark)
	add("system", e.System)
	add("partition", e.Partition)
	add("environ", e.Environ)
	add("spec", e.Spec)
	add("job", strconv.Itoa(e.JobID))
	add("result", e.Result)
	for _, k := range sortedKeys(e.Extra) {
		add(k, e.Extra[k])
	}
	for _, k := range sortedFOMKeys(e.FOMs) {
		v := e.FOMs[k]
		text := strconv.FormatFloat(v.Value, 'g', -1, 64)
		if v.Unit != "" {
			text += " " + v.Unit
		}
		add("fom:"+k, text)
	}
	return strings.Join(parts, "|")
}

// escape is the reference escaper lineReference renders with: '|' and
// newlines cannot appear raw inside values.
func escape(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	s = strings.ReplaceAll(s, "|", `\p`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// parseLineReference is ParseLine as it was before it walked fields
// with strings.Cut: one strings.Split slice per line. FuzzParseLine
// holds ParseLine to it, entry for entry and error text for error text.
func parseLineReference(line string) (*Entry, error) {
	e := &Entry{FOMs: map[string]fom.Value{}, Extra: map[string]string{}}
	if strings.TrimSpace(line) == "" {
		return nil, fmt.Errorf("perflog: empty line")
	}
	for _, field := range strings.Split(line, "|") {
		key, val, found := strings.Cut(field, "=")
		if !found {
			return nil, fmt.Errorf("perflog: malformed field %q", field)
		}
		val = unescape(val)
		switch key {
		case "ts":
			t, err := time.Parse(time.RFC3339, val)
			if err != nil {
				return nil, fmt.Errorf("perflog: bad timestamp %q: %w", val, err)
			}
			e.Time = t
		case "benchmark":
			e.Benchmark = val
		case "system":
			e.System = val
		case "partition":
			e.Partition = val
		case "environ":
			e.Environ = val
		case "spec":
			e.Spec = val
		case "job":
			id, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("perflog: bad job id %q", val)
			}
			e.JobID = id
		case "result":
			e.Result = val
		default:
			if name, ok := strings.CutPrefix(key, "fom:"); ok {
				numText, unit, _ := strings.Cut(val, " ")
				v, err := strconv.ParseFloat(numText, 64)
				if err != nil {
					return nil, fmt.Errorf("perflog: bad FOM value %q for %s", val, name)
				}
				e.FOMs[name] = fom.Value{Name: name, Value: v, Unit: unit}
			} else {
				e.Extra[key] = val
			}
		}
	}
	if e.Benchmark == "" {
		return nil, fmt.Errorf("perflog: line missing benchmark name")
	}
	return e, nil
}

// BenchmarkParseLine decodes a typical line (eight fixed fields, an
// extra, two FOMs with units) with ParseLine and with the Split-based
// reference.
func BenchmarkParseLine(b *testing.B) {
	line := sampleEntry().Line()
	for _, leg := range []struct {
		name  string
		parse func(string) (*Entry, error)
	}{{"optimized", ParseLine}, {"reference", parseLineReference}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := leg.parse(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestLineMatchesReference(t *testing.T) {
	entries := []*Entry{sampleEntry()}
	esc := sampleEntry()
	esc.Spec = `weird|spec with \back\slash` + "\nnewline"
	esc.Extra["key"] = "a|b\\c\nd"
	esc.FOMs["gb_per_s"] = esc.FOMs["l0"]
	entries = append(entries, esc)
	empty := &Entry{Time: time.Unix(0, 0), Benchmark: "b", Result: "fail"}
	entries = append(entries, empty)
	for i, e := range entries {
		if got, want := e.Line(), lineReference(e); got != want {
			t.Errorf("entry %d: Line() diverged from reference\n got %q\nwant %q", i, got, want)
		}
	}
}

func BenchmarkEntryLine(b *testing.B) {
	e := sampleEntry()
	b.Run("optimized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = e.Line()
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = lineReference(e)
		}
	})
}

// BenchmarkAppend measures the write path end to end — render, write,
// fsync — at 1, 8, and 64 concurrent appenders, comparing the
// group-commit Writer against the one-shot per-entry-fsync Append.
// appends/s is the figure of merit: grouping amortizes one fsync over
// every appender waiting in the batch, so the gap should widen with
// writer count.
func BenchmarkAppend(b *testing.B) {
	for _, writers := range []int{1, 8, 64} {
		writers := writers
		b.Run(fmt.Sprintf("grouped/writers=%d", writers), func(b *testing.B) {
			root := b.TempDir()
			w := NewWriter(root, WriterOptions{})
			defer w.Close()
			benchAppenders(b, writers, func(job int) error {
				e := sampleEntry()
				e.JobID = job
				return w.Append("archer2", "hpgmg-fv", e)
			})
		})
		b.Run(fmt.Sprintf("fsync-per-entry/writers=%d", writers), func(b *testing.B) {
			root := b.TempDir()
			benchAppenders(b, writers, func(job int) error {
				e := sampleEntry()
				e.JobID = job
				return Append(root, "archer2", "hpgmg-fv", e)
			})
		})
	}
}

// benchAppenders distributes b.N appends over the given number of
// goroutines via a shared counter, so every variant does identical
// total work regardless of concurrency.
func benchAppenders(b *testing.B, writers int, appendOne func(job int) error) {
	b.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				job := int(next.Add(1))
				if job > b.N {
					return
				}
				if err := appendOne(job); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "appends/s")
}
