package service

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/perflog"
)

// The wire encoder appends perflog entries straight into a pooled byte
// slice, in exactly the bytes encoding/json's indented encoder writes
// for the entry view the API has always served: fields in declaration
// order, sorted FOM and extras keys, encoding/json's float form, RFC
// 3339 timestamps, HTML-safe strings, omitempty on foms/extra/unit and a
// two-space indent. There is no intermediate view, no reflection and no
// second indent pass. The one departure is deliberate: a non-finite FOM,
// which encoding/json refuses, is written as null.

// wire is a pooled response buffer plus the scratch that map keys are
// sorted in.
type wire struct {
	b    []byte
	keys []string
}

// maxPooledWire caps the buffers the pool keeps: an unbounded since=
// select can render megabytes once, and a pool that kept that buffer
// would hold it in the daemon's resident set for good.
const maxPooledWire = 1 << 20

var wirePool = sync.Pool{New: func() any { return new(wire) }}

func getWire() *wire { return wirePool.Get().(*wire) }

// free returns the buffer to the pool, or drops it if it grew too big.
func (w *wire) free() {
	if cap(w.b) > maxPooledWire {
		return
	}
	clear(w.keys[:cap(w.keys)]) // keep no entry's strings alive
	w.b, w.keys = w.b[:0], w.keys[:0]
	wirePool.Put(w)
}

// Write lets encoding/json encode into the buffer.
func (w *wire) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// writeBody sends a finished JSON body in one Write.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// writeEntries answers a select: {"count": n, "entries": [...]}.
func writeEntries(w http.ResponseWriter, entries []*perflog.Entry) {
	buf := getWire()
	defer buf.free()
	if err := buf.selectBody(entries); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, http.StatusOK, buf.b)
}

// selectBody appends the select answer, trailing newline included.
func (w *wire) selectBody(entries []*perflog.Entry) error {
	w.b = append(w.b, "{\n  \"count\": "...)
	w.b = strconv.AppendInt(w.b, int64(len(entries)), 10)
	w.b = append(w.b, ",\n  \"entries\": ["...)
	for i, e := range entries {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.b = append(w.b, "\n    "...)
		if err := w.entry(e, 2); err != nil {
			return err
		}
	}
	if len(entries) > 0 {
		w.b = append(w.b, "\n  "...)
	}
	w.b = append(w.b, "]\n}\n"...)
	return nil
}

// wireEntry is an entry inside a response encoding/json renders, a run
// view, written by the wire encoder. encoding/json compacts what a
// marshaler returns and the response is indented once, so the bytes are
// the ones a select carries. A timestamp the wire cannot carry fails the
// whole response, which writeJSON answers with a 500.
type wireEntry perflog.Entry

func (e *wireEntry) MarshalJSON() ([]byte, error) {
	var w wire
	if err := w.entry((*perflog.Entry)(e), 0); err != nil {
		return nil, err
	}
	return w.b, nil
}

// entry appends e as an object whose opening brace sits at depth
// (two spaces per level). It fails only on a timestamp RFC 3339 cannot
// carry, leaving the buffer as it was.
func (w *wire) entry(e *perflog.Entry, depth int) error {
	b := append(w.b, '{')
	b = indent(b, depth+1)
	b = append(b, `"timestamp": "`...)
	b, err := appendTime(b, e.Time)
	if err != nil {
		return err
	}
	b = append(b, '"', ',')
	b = stringField(b, depth+1, `"benchmark": `, e.Benchmark)
	b = stringField(b, depth+1, `"system": `, e.System)
	b = stringField(b, depth+1, `"partition": `, e.Partition)
	b = stringField(b, depth+1, `"environ": `, e.Environ)
	b = stringField(b, depth+1, `"spec": `, e.Spec)
	b = indent(b, depth+1)
	b = append(b, `"job": `...)
	b = strconv.AppendInt(b, int64(e.JobID), 10)
	b = append(b, ',')
	b = indent(b, depth+1)
	b = append(b, `"result": `...)
	b = appendString(b, e.Result)
	if len(e.FOMs) > 0 {
		b = append(b, ',')
		b = indent(b, depth+1)
		b = append(b, `"foms": {`...)
		for i, k := range sortedKeys(w, e.FOMs) {
			if i > 0 {
				b = append(b, ',')
			}
			f := e.FOMs[k]
			b = indent(b, depth+2)
			b = appendString(b, k)
			b = append(b, ": {"...)
			b = indent(b, depth+3)
			b = append(b, `"value": `...)
			b = appendFloat(b, f.Value)
			if f.Unit != "" {
				b = append(b, ',')
				b = indent(b, depth+3)
				b = append(b, `"unit": `...)
				b = appendString(b, f.Unit)
			}
			b = indent(b, depth+2)
			b = append(b, '}')
		}
		b = indent(b, depth+1)
		b = append(b, '}')
	}
	if len(e.Extra) > 0 {
		b = append(b, ',')
		b = indent(b, depth+1)
		b = append(b, `"extra": {`...)
		for i, k := range sortedKeys(w, e.Extra) {
			if i > 0 {
				b = append(b, ',')
			}
			b = indent(b, depth+2)
			b = appendString(b, k)
			b = append(b, ": "...)
			b = appendString(b, e.Extra[k])
		}
		b = indent(b, depth+1)
		b = append(b, '}')
	}
	b = indent(b, depth)
	w.b = append(b, '}')
	return nil
}

// appendTime writes t as encoding/json does, RFC 3339 with nanoseconds,
// and refuses what it refuses: a year that is not four digits wide, or a
// zone offset of 24 hours or more.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	s := b[n0:]
	if s[len("9999")] != '-' {
		return b, errors.New("timestamp year outside of range [0,9999]")
	}
	if s[len(s)-1] != 'Z' {
		// The offset is ±hh:mm; a wider hour puts a digit where the sign goes.
		hh := s[len(s)-len("07:00"):]
		if c := s[len(s)-len("Z07:00")]; '0' <= c && c <= '9' || 10*(hh[0]-'0')+hh[1]-'0' >= 24 {
			return b, errors.New("timestamp zone offset outside of range [0,23] hours")
		}
	}
	return b, nil
}

// sortedKeys lists m's keys in the scratch, in encoding/json's order.
func sortedKeys[V any](w *wire, m map[string]V) []string {
	keys := w.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.keys = keys
	return keys
}

// newline holds enough indent for the deepest line an entry in a
// select has (depth 5).
const newline = "\n            "

// indent starts a new line at depth.
func indent(b []byte, depth int) []byte {
	return append(b, newline[:1+2*depth]...)
}

// stringField appends one `"name": "value",` line.
func stringField(b []byte, depth int, name, v string) []byte {
	b = indent(b, depth)
	b = append(b, name...)
	b = appendString(b, v)
	return append(b, ',')
}

// appendString quotes s as encoding/json does with HTML escaping on.
// Printable ASCII that needs no escape is copied; anything else goes
// through the standard library's own escaper.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat writes f in encoding/json's form: 'f' notation, 'e' below
// 1e-6 and from 1e21 on, with a one-digit negative exponent unpadded.
// A non-finite value is null.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
