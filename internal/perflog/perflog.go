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
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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
//     died mid-append). "|\n" is written to terminate it, so the next
//     entry starts a line of its own instead of being glued to the
//     fragment, and the fragment never parses: a raw '|' always starts
//     a field (values write it as \p), so the fragment's last field is
//     empty, which ParseLine refuses, wherever the cut fell. Readers
//     skip it as a bad line; the caller's commit fsync makes it durable.
//     The check can race another appender whose write is still landing
//     (the size read falls inside its line); the terminator then lands
//     after that writer's whole line as a line holding only '|', which
//     every reader skips like a blank line.
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

// terminateTail writes "|\n" after a torn last line, as openLog
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
		_, err = f.Write([]byte("|\n"))
	}
	return err
}

// BadLine is one whole perflog line that did not parse. Every reader
// skips it, so it costs that line and nothing after it.
type BadLine struct {
	File   string `json:"file"`
	Offset int64  `json:"offset"`
	Length int    `json:"length"`
	Error  string `json:"error"`
}

// Lines is what Scan read: the whole lines, parsed.
type Lines struct {
	Entries []*Entry
	Bad     []BadLine // the whole lines that did not parse, in file order
	Bytes   int64     // consumed through the last '\n'
}

// ScanChunk bounds one read of Scan: a chunk's whole lines become one
// string that the parsed entries' fields are substrings of. A chunk
// never spans two scans, so no other file's entries keep it alive.
const ScanChunk = 1 << 20

// Scan is the one reader of perflog text: it parses the whole lines r
// yields, a ScanChunk at a time, with no cap on a line's length. Blank
// lines, '#' comments and the bare '|' a racing openLog can leave are
// skipped; a line that does not parse is recorded in Bad, named by file
// and by its offset counted from offset (where r starts in the file).
// Bytes after the last '\n' are a line a writer is still appending, or
// a torn tail, and are left unread: every entry Scan returns is a whole
// line. size is an upper bound on what r holds, or ≤ 0 when unknown; it
// only sizes the first chunk. The error is what cut the read short;
// Lines still covers every whole line read before it.
func Scan(r io.Reader, size int64, file string, offset int64) (Lines, error) {
	var out Lines
	if size <= 0 || size > ScanChunk {
		size = ScanChunk
	}
	buf := make([]byte, 0, size)
	for {
		n, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		end := bytes.LastIndexByte(buf, '\n') + 1
		for chunk := string(buf[:end]); chunk != ""; {
			line, rest, _ := strings.Cut(chunk, "\n")
			if text := strings.TrimSpace(line); text != "" && text != "|" && !strings.HasPrefix(text, "#") {
				if e, err := ParseLine(text); err != nil {
					out.Bad = append(out.Bad, BadLine{File: file, Offset: offset + out.Bytes, Length: len(line) + 1, Error: err.Error()})
				} else {
					out.Entries = append(out.Entries, e)
				}
			}
			out.Bytes += int64(len(line)) + 1
			chunk = rest
		}
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return out, nil
		default:
			return out, err
		}
		buf = buf[:copy(buf, buf[end:])]
		if len(buf) == cap(buf) { // one line longer than the buffer
			buf = slices.Grow(buf, len(buf))
		}
	}
}

// ReadTree walks a perflog root directory (as written by Append, possibly
// covering many systems) and returns every entry, in walk order. This is
// the cross-platform assimilation step of §2.4: logs "generated on
// isolated systems" are collated in one pass. Each .log file is read by
// Scan, as the store reads it: a line that does not parse is skipped and
// costs only itself, and an unterminated last line is left out. Both
// skips are silent (the store counts bad lines in its Stats; a caller
// that must see them calls Scan itself). root may also name a single
// .log file.
func ReadTree(root string) ([]*Entry, error) {
	var out []*Entry
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".log") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		var size int64
		if info, err := d.Info(); err == nil {
			size = info.Size()
		}
		lines, err := Scan(f, size, path, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, lines.Entries...)
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
