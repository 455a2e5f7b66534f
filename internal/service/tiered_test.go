package service

// Service-level tests for the tiered storage engine: healthz storage
// detail, seal-on-shutdown → zero-reparse boot, and the degraded
// read-only mode entered when the segment manifest is unreadable.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fom"
	"repro/internal/perflog"
	"repro/internal/perfstore"
)

// seedTieredTree writes a few perflog entries under root.
func seedTieredTree(t *testing.T, root string) int {
	t.Helper()
	base := time.Date(2023, 7, 7, 10, 0, 0, 0, time.UTC)
	n := 0
	for _, sys := range []string{"archer2", "csd3"} {
		for i := 0; i < 3; i++ {
			e := &perflog.Entry{
				Time: base.Add(time.Duration(n) * time.Hour), Benchmark: "hpgmg-fv",
				System: sys, Partition: "compute", Environ: "gcc",
				Spec: "hpgmg%gcc", JobID: n + 1, Result: "pass",
				FOMs:  map[string]fom.Value{"l0": {Name: "l0", Value: float64(100 + n), Unit: "MDOF/s"}},
				Extra: map[string]string{},
			}
			if err := perflog.Append(root, sys, "hpgmg-fv", e); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	return n
}

// healthView decodes the /healthz fields these tests assert on.
type healthView struct {
	Status  string `json:"status"`
	Entries int    `json:"entries"`
	Storage struct {
		Mode                string `json:"mode"`
		DataDir             string `json:"data_dir"`
		HeadEntries         int    `json:"head_entries"`
		HeadResidentBytes   int64  `json:"head_resident_bytes"`
		SealedEntries       int    `json:"sealed_entries"`
		SealedSegments      int    `json:"sealed_segments"`
		SealedResidentBytes int64  `json:"sealed_resident_bytes"`
		ManifestGeneration  uint64 `json:"manifest_generation"`
		SegmentLoadFailures int    `json:"segment_load_failures"`
	} `json:"storage"`
}

func newTieredServer(t *testing.T, perflogRoot, dataDir string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{
		PerflogRoot:    perflogRoot,
		DataDir:        dataDir,
		InstallTree:    t.TempDir(),
		Workers:        1,
		QueueDepth:     4,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

// TestTieredHealthzStorageDetail: /healthz reports the storage tier
// honestly on both sides of a seal, and /metrics carries the same
// resident bytes: the head's before the seal, the segment's after it.
func TestTieredHealthzStorageDetail(t *testing.T) {
	perflogRoot := filepath.Join(t.TempDir(), "perflogs")
	n := seedTieredTree(t, perflogRoot)
	dataDir := t.TempDir()
	srv, ts := newTieredServer(t, perflogRoot, dataDir)
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	gauge := func(name string, v int64) string { return name + " " + strconv.FormatFloat(float64(v), 'g', -1, 64) }

	var h healthView
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if h.Status != "ok" || h.Storage.Mode != "tiered" || h.Storage.DataDir != dataDir {
		t.Fatalf("healthz = %+v", h)
	}
	if h.Storage.HeadEntries != n || h.Storage.SealedSegments != 0 || h.Storage.SealedResidentBytes != 0 ||
		h.Storage.HeadResidentBytes <= 0 {
		t.Fatalf("pre-seal storage = %+v", h.Storage)
	}
	if text := scrape(); !strings.Contains(text, gauge("perfstore_head_resident_bytes", h.Storage.HeadResidentBytes)) {
		t.Errorf("/metrics before the seal does not carry perfstore_head_resident_bytes %d", h.Storage.HeadResidentBytes)
	}

	if _, err := srv.Store().Seal(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if h.Storage.HeadEntries != 0 || h.Storage.SealedEntries != n || h.Storage.HeadResidentBytes != 0 ||
		h.Storage.SealedSegments != 1 || h.Storage.ManifestGeneration == 0 || h.Storage.SealedResidentBytes <= 0 {
		t.Fatalf("post-seal storage = %+v", h.Storage)
	}
	if h.Entries != n {
		t.Fatalf("entries = %d, want %d", h.Entries, n)
	}

	// The storage tier is visible in the Prometheus exposition too.
	text := scrape()
	for _, metric := range []string{
		"perfstore_segments_sealed_total",
		"perfstore_seal_seconds",
		"perfstore_sealed_segments 1",
		"perfstore_head_entries 0",
		"perfstore_head_resident_bytes 0",
		"perfstore_ingest_bytes_total",
		gauge("perfstore_sealed_resident_bytes", h.Storage.SealedResidentBytes),
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("/metrics missing %q after seal", metric)
		}
	}
}

// TestTieredSealOnShutdownZeroReparse: a graceful shutdown seals the
// head, so the next daemon boot against the same data dir re-parses
// zero perflog bytes.
func TestTieredSealOnShutdownZeroReparse(t *testing.T) {
	perflogRoot := filepath.Join(t.TempDir(), "perflogs")
	n := seedTieredTree(t, perflogRoot)
	dataDir := t.TempDir()

	srv1, err := New(Config{
		PerflogRoot: perflogRoot,
		DataDir:     dataDir,
		InstallTree: t.TempDir(),
		Workers:     1,
		QueueDepth:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv1.Store().Stats().BytesParsed; got == 0 {
		t.Fatal("first boot should have parsed the perflog tree")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{
		PerflogRoot: perflogRoot,
		DataDir:     dataDir,
		InstallTree: t.TempDir(),
		Workers:     1,
		QueueDepth:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Shutdown(context.Background())
	st := srv2.Store().Stats()
	if st.BytesParsed != 0 {
		t.Fatalf("second boot parsed %d perflog bytes, want 0", st.BytesParsed)
	}
	if st.Entries != n || st.SealedEntries != n {
		t.Fatalf("second boot stats = %+v", st)
	}
}

// TestTieredDegradedReadOnly: an unreadable manifest must not take the
// daemon down — it boots read-only from the text tree, reports
// "degraded" on /healthz, and refuses submissions with a 503.
func TestTieredDegradedReadOnly(t *testing.T) {
	perflogRoot := filepath.Join(t.TempDir(), "perflogs")
	n := seedTieredTree(t, perflogRoot)
	dataDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dataDir, "MANIFEST"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTieredServer(t, perflogRoot, dataDir)
	if !srv.Degraded() {
		t.Fatal("server with corrupt manifest is not degraded")
	}

	var h healthView
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz status = %d", code)
	}
	if h.Status != "degraded" || h.Storage.Mode != "degraded-readonly" {
		t.Fatalf("healthz = %+v", h)
	}
	if schedulerRunning(t, ts.URL) {
		t.Error("a degraded boot started the schedule tick loop")
	}
	// Reads still work: the store was rebuilt from the text tree.
	if h.Entries != n {
		t.Fatalf("degraded boot serves %d entries, want %d", h.Entries, n)
	}
	var q struct {
		Count int `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/v1/query?benchmark=hpgmg-fv", &q); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if q.Count != n {
		t.Fatalf("degraded query count = %d, want %d", q.Count, n)
	}

	// Writes are refused with an honest 503.
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"benchmark":"babelstream-omp","system":"archer2"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit on degraded server = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 without Retry-After")
	}
}

// TestSelectBodySameOnBothTiers: a select answers with the same bytes
// whether its rows come from the head or from sealed segments loaded from
// disk — the sealed rows are materialized into entries only for the
// answer, and must come out as the head's entries do.
func TestSelectBodySameOnBothTiers(t *testing.T) {
	root, dataDir := t.TempDir(), t.TempDir()
	base := time.Date(2023, 7, 7, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 240; i++ {
		sys := []string{"archer2", "csd3", "cosma8"}[i%3]
		e := &perflog.Entry{
			Time: base.Add(time.Duration(i/2) * time.Minute), Benchmark: []string{"hpgmg-fv", "hpcg"}[i%2],
			System: sys, Partition: "compute", Environ: "gcc", Spec: "hpgmg%gcc", JobID: i,
			Result: []string{"pass", "fail", "pass"}[i%3],
			FOMs:   map[string]fom.Value{"l0": {Name: "l0", Value: 100 + float64(i)/7, Unit: "MDOF/s"}},
			Extra:  map[string]string{"num_tasks": strconv.Itoa(8 << (i % 3))},
		}
		if i%4 == 0 {
			e.FOMs["l1"] = fom.Value{Name: "l1", Value: float64(i), Unit: ""}
			e.Extra["gpu"] = "v100"
		}
		if i%5 == 0 {
			e.SetRepStats("l0", perflog.RepStats{N: 5, Mean: 100, Stddev: 1.5, RSD: 0.015, CILo: 99, CIHi: 101})
		}
		if err := perflog.Append(root, sys, e.Benchmark, e); err != nil {
			t.Fatal(err)
		}
	}
	head := perfstore.Open(root)
	if err := head.Sync(); err != nil {
		t.Fatal(err)
	}
	sealer, err := perfstore.OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sealer.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, err := sealer.Seal(); err != nil || n != 240 {
		t.Fatalf("sealed %d entries, err %v", n, err)
	}
	sealed, err := perfstore.OpenTiered(root, dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sealed.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := sealed.Stats(); st.HeadEntries != 0 || st.SealedEntries != 240 || st.BytesParsed != 0 {
		t.Fatalf("rebooted store: %+v", st)
	}
	body := func(s *perfstore.Store, raw string) []byte {
		q, err := perfstore.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeEntries(rec, s.Select(q))
		return rec.Body.Bytes()
	}
	for _, raw := range []string{
		"",
		"limit=25",
		"system=csd3&benchmark=hpcg",
		"fom=l1&limit=7",
		"extra.num_tasks=16&result=pass",
		"extra.gpu=v100&since=" + url.QueryEscape(base.Add(90*time.Minute).Format(time.RFC3339)),
		"system=nowhere",
	} {
		want, got := body(head, raw), body(sealed, raw)
		if string(got) != string(want) {
			t.Fatalf("select %q: sealed body differs from the head's\nhead   %.300s\nsealed %.300s", raw, want, got)
		}
	}
	if n := len(body(sealed, "")); n < 240*100 {
		t.Fatalf("a select of everything answered %d bytes", n)
	}
}
