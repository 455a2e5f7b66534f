package perflog

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/fom"
)

// FuzzParseLine hardens the perflog reader: arbitrary lines must either
// fail cleanly or yield an entry that round-trips through Line() — every
// value comes back as parsed, whether or not it needed escaping, and the
// canonical line is a fixed point. Every line also parses exactly as the
// Split-based reference parses it: the same entry or the same error.
func FuzzParseLine(f *testing.F) {
	f.Add(sampleEntry().Line())
	f.Add("benchmark=x")
	f.Add("ts=2023-07-07T10:02:11Z|benchmark=b|system=s|partition=p|environ=e|spec=sp|job=1|result=pass|fom:l0=95.36 MDOF/s")
	f.Add("benchmark=x|weird\\pfield=1")
	f.Add("=|=|=")
	f.Add("benchmark=x|fom:y=1e309")
	// Values with and without each escaped byte, and the one backslash
	// unescape must leave alone: a lone one at the end of a value.
	f.Add(`benchmark=x|k=plain`)
	f.Add(`benchmark=x|k=a\\b`)
	f.Add(`benchmark=x|k=a\pb`)
	f.Add(`benchmark=x|k=a\nb`)
	f.Add(`benchmark=x|k=a\qb`)
	f.Add(`benchmark=x|k=abc\`)
	f.Add(`benchmark=x|system=s\|fom:y=1 u\`)
	f.Add((&Entry{
		Time: time.Unix(0, 0), Benchmark: "b|\\", System: "s\n", Spec: "sp\\",
		FOMs:  map[string]fom.Value{"y": {Name: "y", Value: 1, Unit: "a|b\\"}},
		Extra: map[string]string{"k": "a\\b|c\nd\\", "plain": "v"},
	}).Line())
	f.Add("benchmark=x|")
	f.Add("benchmark=x||system=s")
	f.Add("|benchmark=x")
	f.Add("benchmark=x|fom:y=NaN u|fom:z=nan")
	f.Add("ts=bad|benchmark=x")
	f.Fuzz(func(t *testing.T, line string) {
		e, err := ParseLine(line)
		want, werr := parseLineReference(line)
		if fmt.Sprint(err) != fmt.Sprint(werr) || !sameParse(e, want) {
			t.Fatalf("ParseLine(%q) = %+v, %v; the reference gives %+v, %v", line, e, err, want, werr)
		}
		if err != nil {
			return
		}
		re, err := ParseLine(e.Line())
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", line, err)
		}
		if re.Benchmark != e.Benchmark || re.System != e.System || re.Partition != e.Partition ||
			re.Environ != e.Environ || re.Spec != e.Spec || re.Result != e.Result || re.JobID != e.JobID ||
			!reflect.DeepEqual(re.Extra, e.Extra) || len(re.FOMs) != len(e.FOMs) {
			t.Fatalf("round trip changed entry: %+v vs %+v", e, re)
		}
		for name, v := range e.FOMs {
			if re.FOMs[name].Unit != v.Unit {
				t.Fatalf("round trip changed unit of %q: %q vs %q", name, v.Unit, re.FOMs[name].Unit)
			}
		}
		if got, want := re.Line(), e.Line(); got != want {
			t.Fatalf("canonical line is not a fixed point:\n%s\n%s", want, got)
		}
	})
}

// sameParse is reflect.DeepEqual on two parsed entries, except that a
// NaN figure of merit equals a NaN.
func sameParse(a, b *Entry) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.FOMs) != len(b.FOMs) {
		return false
	}
	for name, v := range a.FOMs {
		w, ok := b.FOMs[name]
		if !ok || v.Name != w.Name || v.Unit != w.Unit || v.Value != w.Value && !(math.IsNaN(v.Value) && math.IsNaN(w.Value)) {
			return false
		}
	}
	ac, bc := *a, *b
	ac.FOMs, bc.FOMs = nil, nil
	return reflect.DeepEqual(ac, bc)
}
