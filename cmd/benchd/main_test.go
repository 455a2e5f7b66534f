package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func TestBadFlagErrors(t *testing.T) {
	if err := run(context.Background(), []string{"--no-such-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestUnlistenableAddrFailsFast(t *testing.T) {
	dir := t.TempDir()
	err := run(context.Background(), []string{
		"--addr", "203.0.113.1:1", // TEST-NET address: bind must fail
		"--perflog", filepath.Join(dir, "perflogs"),
		"--tree", filepath.Join(dir, "install"),
	})
	if err == nil {
		t.Fatal("expected listen error")
	}
}

// TestCorruptPerflogTreeRejectedAtBoot: the initial warm ingest must
// surface a perflog it cannot read instead of serving a half-loaded
// store.
func TestCorruptPerflogTreeRejectedAtBoot(t *testing.T) {
	dir := t.TempDir()
	root := filepath.Join(dir, "perflogs", "archer2")
	if err := writeFile(t, filepath.Join(root, "x.log"), "not a perflog line\n"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Reset)
	err := run(context.Background(), []string{
		"--addr", "127.0.0.1:0",
		"--perflog", filepath.Join(dir, "perflogs"),
		"--tree", filepath.Join(dir, "install"),
		"--faults", "perfstore.sync:error",
	})
	if err == nil || !strings.Contains(err.Error(), "ingest") {
		t.Fatalf("err = %v", err)
	}
}

// TestBadLineBootsAndIsQuarantined: a line the parser refuses costs
// that line, not the boot. The daemon serves the lines around it and
// /healthz lists it as quarantined.
func TestBadLineBootsAndIsQuarantined(t *testing.T) {
	dir := t.TempDir()
	good := "ts=2023-07-07T10:00:00Z|benchmark=bs|system=archer2|partition=|environ=|spec=|job=1|result=pass|fom:l0=1 s\n"
	if err := writeFile(t, filepath.Join(dir, "perflogs", "archer2", "bs.log"), good+"not a perflog line\n"+strings.Replace(good, "job=1", "job=2", 1)); err != nil {
		t.Fatal(err)
	}
	addr := freeLoopbackAddr(t)
	stop := boot(t, "http://"+addr, []string{
		"--addr", addr,
		"--perflog", filepath.Join(dir, "perflogs"),
		"--tree", filepath.Join(dir, "install"),
	})
	h := health(t, "http://"+addr)
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if h.Entries != 2 || h.Storage.BadLines != 1 || len(h.Storage.Quarantined) != 1 || h.Storage.Quarantined[0].Offset != int64(len(good)) {
		t.Fatalf("healthz = %+v, want 2 entries and the line at offset %d quarantined", h, len(good))
	}
}

func writeFile(t *testing.T, path, content string) error {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestGracefulStopSealsForAZeroParseReboot: cancelling run's context (a
// SIGTERM in main) drains, closes the writer and seals the head, so the
// next boot serves the run from one sealed segment and parses zero
// perflog bytes.
func TestGracefulStopSealsForAZeroParseReboot(t *testing.T) {
	dir := t.TempDir()
	addr := freeLoopbackAddr(t)
	args := []string{
		"--addr", addr,
		"--perflog", filepath.Join(dir, "perflogs"),
		"--data-dir", filepath.Join(dir, "segments"),
		"--tree", filepath.Join(dir, "install"),
	}
	base := "http://" + addr

	stop := boot(t, base, args)
	resp, err := http.Post(base+"/v1/runs", "application/json",
		strings.NewReader(`{"benchmark":"babelstream-omp","system":"archer2"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	for deadline := time.Now().Add(60 * time.Second); health(t, base).Entries != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the run never reached the store")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := stop(); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}

	stop = boot(t, base, args)
	h := health(t, base)
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	if h.Entries != 1 || h.Storage.Mode != "tiered" || h.Storage.SealedSegments != 1 || h.BytesParsed != 0 {
		t.Fatalf("second boot healthz = %+v, want 1 entry from 1 sealed segment, tiered, 0 bytes parsed", h)
	}
}

// TestMetricsScrape boots benchd, completes one run and scrapes
// /metrics: the HTTP, stage and run series are there, the run went
// through a durable group commit and entered the store as a batch, boot
// explains itself in the log and in benchd_boot_seconds, and with no
// run on "local" the host bandwidth calibration never ran.
func TestMetricsScrape(t *testing.T) {
	stderr := captureStderr(t)
	dir := t.TempDir()
	addr := freeLoopbackAddr(t)
	base := "http://" + addr
	stop := boot(t, base, []string{
		"--addr", addr,
		"--perflog", filepath.Join(dir, "perflogs"),
		"--tree", filepath.Join(dir, "install"),
	})
	const completed = `benchd_runs_total{status="completed"}`
	before := sample(scrape(t, base), completed)
	resp, err := http.Post(base+"/v1/runs", "application/json",
		strings.NewReader(`{"benchmark":"babelstream-omp","system":"archer2"}`))
	if err != nil {
		t.Fatal(err)
	}
	var run struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&run)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	for deadline := time.Now().Add(60 * time.Second); run.Status != "completed"; time.Sleep(20 * time.Millisecond) {
		if run.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("run %s: status %q, error %q", run.ID, run.Status, run.Error)
		}
		resp, err := http.Get(base + "/v1/runs/" + run.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&run)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	metrics := scrape(t, base)
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, want := range []string{
		"benchd_http_requests_total{",
		"runner_stage_seconds",
		`perflog_commits_total{status="ok"}`,
		"benchd_ingest_batch_size_count",
		"perflog_fsync_seconds_count",
		`benchd_boot_seconds{phase="total"}`,
		`benchd_boot_seconds{phase="tail_sync"}`,
		"\nplatform_host_calibration_seconds 0\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if got := sample(metrics, completed) - before; got != 1 {
		t.Errorf("%s moved by %g, want 1", completed, got)
	}
	if logs := stderr(); !strings.Contains(logs, "boot complete") {
		t.Errorf("no boot complete line in the log:\n%s", logs)
	}
}

// scrape returns the /metrics exposition text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d, %v", resp.StatusCode, err)
	}
	return string(b)
}

// sample is the value of one series in exposition text, 0 when absent.
func sample(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

// captureStderr points os.Stderr, where benchd logs, at a pipe until the
// returned func restores it and returns what was written.
func captureStderr(t *testing.T) func() string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	var buf strings.Builder
	done := make(chan struct{})
	go func() {
		io.Copy(&buf, r)
		close(done)
	}()
	var once sync.Once
	restore := func() string {
		once.Do(func() {
			os.Stderr = old
			w.Close()
			<-done
		})
		return buf.String()
	}
	t.Cleanup(func() { restore() })
	return restore
}

// freeLoopbackAddr returns a loopback address with a port that was free
// a moment ago.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// boot runs the daemon until the returned stop cancels its context;
// stop returns run's error. boot returns once /healthz answers.
func boot(t *testing.T, base string, args []string) (stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args) }()
	for deadline := time.Now().Add(30 * time.Second); ; {
		select {
		case err := <-errc:
			cancel()
			t.Fatalf("benchd exited during boot: %v", err)
		default:
		}
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("benchd never answered /healthz")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return func() error { cancel(); return <-errc }
}

// healthView is the part of /healthz the boot tests read.
type healthView struct {
	Entries     int   `json:"entries"`
	BytesParsed int64 `json:"bytes_parsed"`
	Storage     struct {
		Mode           string `json:"mode"`
		SealedSegments int    `json:"sealed_segments"`
		BadLines       int    `json:"bad_lines"`
		Quarantined    []struct {
			Offset int64 `json:"offset"`
		} `json:"quarantined"`
	} `json:"storage"`
}

func health(t *testing.T, base string) healthView {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthView
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(fmt.Errorf("decode /healthz: %w", err))
	}
	return h
}
