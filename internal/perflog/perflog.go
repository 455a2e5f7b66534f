// Package perflog reads and writes performance logs, the append-only
// per-benchmark records ReFrame produces (paper §2.4). Each run appends
// one line; post-processing assimilates the lines (possibly from several
// systems) into a DataFrame without manual copying — Principle 6.
//
// The line format is pipe-separated key=value fields:
//
//	ts=2023-07-07T10:02:11Z|benchmark=hpgmg-fv|system=archer2|partition=compute|environ=gcc|spec=hpgmg%gcc|job=17|result=pass|num_tasks=8|fom:l0=95.36 MDOF/s|fom:l1=83.43 MDOF/s
//
// FOM fields carry a "fom:" prefix and an optional unit after the value.
package perflog

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/fom"
)

// Entry is one benchmark run record.
type Entry struct {
	Time      time.Time
	Benchmark string
	System    string
	Partition string
	Environ   string
	Spec      string
	JobID     int
	Result    string // "pass" or "fail"
	FOMs      map[string]fom.Value
	Extra     map[string]string // run parameters (num_tasks, ...)
}

// Pass reports whether the entry records a successful run.
func (e *Entry) Pass() bool { return e.Result == "pass" }

// Line renders the entry as one perflog line. Field order is fixed and
// FOMs/extras are sorted, so identical entries render identically.
//
// Rendering happens on every append — under the group-commit Writer,
// inside each appender's hot path — so the line is built into a single
// grown builder with no intermediate field slice, no per-field string
// concatenation, and numeric fields appended via the strconv Append
// forms.
func (e *Entry) Line() string {
	var b strings.Builder
	b.Grow(128 + 24*(len(e.Extra)+len(e.FOMs)))
	var scratch [40]byte
	b.WriteString("ts=")
	b.Write(e.Time.UTC().AppendFormat(scratch[:0], time.RFC3339))
	writeField(&b, "benchmark", e.Benchmark)
	writeField(&b, "system", e.System)
	writeField(&b, "partition", e.Partition)
	writeField(&b, "environ", e.Environ)
	writeField(&b, "spec", e.Spec)
	b.WriteString("|job=")
	b.Write(strconv.AppendInt(scratch[:0], int64(e.JobID), 10))
	writeField(&b, "result", e.Result)
	for _, k := range sortedKeys(e.Extra) {
		writeField(&b, k, e.Extra[k])
	}
	for _, k := range sortedFOMKeys(e.FOMs) {
		v := e.FOMs[k]
		b.WriteString("|fom:")
		b.WriteString(k)
		b.WriteByte('=')
		b.Write(strconv.AppendFloat(scratch[:0], v.Value, 'g', -1, 64))
		if v.Unit != "" {
			b.WriteByte(' ')
			writeEscaped(&b, v.Unit)
		}
	}
	return b.String()
}

// writeField appends "|key=value" with the value escaped. Keys are
// trusted (fixed field names and caller-controlled extras, as in the
// original join-based renderer).
func writeField(b *strings.Builder, key, val string) {
	b.WriteByte('|')
	b.WriteString(key)
	b.WriteByte('=')
	writeEscaped(b, val)
}

// ParseLine decodes one perflog line.
func ParseLine(line string) (*Entry, error) {
	e := &Entry{FOMs: map[string]fom.Value{}, Extra: map[string]string{}}
	if strings.TrimSpace(line) == "" {
		return nil, fmt.Errorf("perflog: empty line")
	}
	for rest, more := line, true; more; {
		var field string
		field, rest, more = strings.Cut(rest, "|")
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

// writeEscaped keeps the line format unambiguous: backslashes, '|' and
// newlines cannot appear raw inside values, so each is written as its
// escape sequence. The common clean value is copied in one WriteString.
func writeEscaped(b *strings.Builder, s string) {
	if !strings.ContainsAny(s, "\\|\n") {
		b.WriteString(s)
		return
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '|':
			b.WriteString(`\p`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(s[i])
		}
	}
}

// unescape inverts escape. Almost no value holds a backslash, and one
// that holds none is returned as is, without a copy.
func unescape(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 == len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case 'p':
			b.WriteByte('|')
		case 'n':
			b.WriteByte('\n')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// Append appends entries to the perflog for a benchmark on a system,
// following the directory layout <root>/<system>/<benchmark>.log and
// creating directories as needed. It is a batch of one through the same
// commit routine the group-commit Writer runs: the entries land with a
// single Write on an O_APPEND descriptor from openLog, so concurrent
// appenders (several benchctl processes, a benchd writer) never
// interleave bytes mid-line, and they are fsynced before Append reports
// success: perflogs are the only durable record of a run (Principle 6).
// The descriptor is closed before Append returns. Each entry's Time is
// rounded in place to the UTC whole second its line records.
//
// The injection points are the Writer's: "perflog.open" and
// "perflog.sync" fire before any byte is written, so an injected fault
// never leaves landed-but-unacknowledged bytes behind and chaos
// harnesses can account for every line exactly; "perflog.written" fires
// between the write and the fsync. (A real fsync error after the write
// does carry that ambiguity.)
func Append(root, system, benchmark string, entries ...*Entry) error {
	b := &writeBatch{groups: map[string]*commitGroup{}}
	b.add(system, benchmark, render(entries), entries)
	files := logFiles{root: root, open: map[string]*os.File{}}
	_, err := files.commit(b)
	if cerr := files.closeAll(); err == nil {
		err = cerr
	}
	return err
}

// openLog opens <root>/<system>/<benchmark>.log for appending, creating
// it and its directory as needed; it is the one way a perflog is opened
// for writing. Two rules make what the caller appends next durable and
// whole:
//
//   - The system directory and the root are fsynced on every open, so a
//     newly created file's name survives power loss along with the
//     entries fsynced into it. There is no "did I create it" branch: a
//     failed directory sync fails the open, and the next open syncs
//     again.
//   - A file whose last byte is not '\n' ends in a torn line (a writer
//     died mid-append). A '\n' is written to terminate it, so the next
//     entry starts a line of its own instead of being glued to the
//     fragment; the caller's commit fsync makes it durable. If an
//     out-of-band writer races in between the check and the write, the
//     worst case is an empty line, which every reader skips.
func openLog(root, system, benchmark string) (*os.File, string, error) {
	dir := filepath.Join(root, system)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", fmt.Errorf("perflog: %w", err)
	}
	path := filepath.Join(dir, benchmark+".log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, "", fmt.Errorf("perflog: %w", err)
	}
	err = atomicfile.SyncDir(dir)
	if err == nil {
		err = atomicfile.SyncDir(root)
	}
	if err == nil {
		err = terminateTail(f)
	}
	if err != nil {
		f.Close()
		return nil, "", fmt.Errorf("perflog: %s: %w", path, err)
	}
	return f, path, nil
}

// terminateTail writes a '\n' after a torn last line, as openLog
// describes.
func terminateTail(f *os.File) error {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return err
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], fi.Size()-1); err != nil {
		return err
	}
	if last[0] != '\n' {
		_, err = f.Write([]byte{'\n'})
	}
	return err
}

// Read decodes all entries from one perflog file.
func Read(path string) ([]*Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("perflog: %w", err)
	}
	defer f.Close()
	return ReadFrom(f)
}

// ReadFrom decodes entries from a stream, one line each.
func ReadFrom(r io.Reader) ([]*Entry, error) {
	var out []*Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("perflog: line %d: %w", lineNo, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("perflog: %w", err)
	}
	return out, nil
}

// ReadTree walks a perflog root directory (as written by Append, possibly
// covering many systems) and returns every entry. This is the
// cross-platform assimilation step of §2.4: logs "generated on isolated
// systems" are collated in one pass.
func ReadTree(root string) ([]*Entry, error) {
	var out []*Entry
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".log") {
			return nil
		}
		entries, err := Read(path)
		if err != nil {
			// Read's errors name the line but not the file; a tree walk
			// without the path would leave the bad log unidentifiable.
			return fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, entries...)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("perflog: %w", err)
	}
	return out, nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedFOMKeys(m map[string]fom.Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
