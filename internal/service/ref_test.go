package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/perflog"
)

// The reflective entry view the daemon served before the wire encoder,
// kept as the reference the encoder is byte-compared and benchmarked
// against, and as the type tests decode responses into.

// fomView is one figure of merit on the wire.
type fomView struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

// entryView is a perflog entry on the wire.
type entryView struct {
	Timestamp time.Time          `json:"timestamp"`
	Benchmark string             `json:"benchmark"`
	System    string             `json:"system"`
	Partition string             `json:"partition"`
	Environ   string             `json:"environ"`
	Spec      string             `json:"spec"`
	Job       int                `json:"job"`
	Result    string             `json:"result"`
	FOMs      map[string]fomView `json:"foms,omitempty"`
	Extra     map[string]string  `json:"extra,omitempty"`
}

func viewEntry(e *perflog.Entry) entryView {
	v := entryView{
		Timestamp: e.Time,
		Benchmark: e.Benchmark,
		System:    e.System,
		Partition: e.Partition,
		Environ:   e.Environ,
		Spec:      e.Spec,
		Job:       e.JobID,
		Result:    e.Result,
		Extra:     e.Extra,
	}
	if len(e.FOMs) > 0 {
		v.FOMs = map[string]fomView{}
		for k, f := range e.FOMs {
			v.FOMs[k] = fomView{Value: f.Value, Unit: f.Unit}
		}
	}
	return v
}

// runRef is a run view whose entry decodes into the reference view; the
// outer Entry shadows runView's marshal-only one in encoding/json as in Go.
type runRef struct {
	runView
	Entry *entryView `json:"entry,omitempty"`
}

// encodeRef is encoding/json's indented encoding, as writeJSON renders.
func encodeRef(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// selectRef is the select body the reference path renders.
func selectRef(entries []*perflog.Entry) ([]byte, error) {
	views := make([]entryView, len(entries))
	for i, e := range entries {
		views[i] = viewEntry(e)
	}
	return encodeRef(map[string]any{"entries": views, "count": len(views)})
}

// writeSelectRef is the select branch of handleQuery before the wire
// encoder: views, then encoding/json indenting straight into the writer.
func writeSelectRef(w http.ResponseWriter, entries []*perflog.Entry) {
	views := make([]entryView, len(entries))
	for i, e := range entries {
		views[i] = viewEntry(e)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"entries": views, "count": len(views)})
}
