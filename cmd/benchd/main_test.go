package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

func TestCorruptPerflogTreeRejectedAtBoot(t *testing.T) {
	// The initial warm ingest must surface unreadable logs instead of
	// serving a half-loaded store.
	dir := t.TempDir()
	root := filepath.Join(dir, "perflogs", "archer2")
	if err := writeFile(t, filepath.Join(root, "x.log"), "not a perflog line\n"); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{
		"--addr", "127.0.0.1:0",
		"--perflog", filepath.Join(dir, "perflogs"),
		"--tree", filepath.Join(dir, "install"),
	})
	if err == nil || !strings.Contains(err.Error(), "ingest") {
		t.Fatalf("err = %v", err)
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

// healthView is the part of /healthz the reboot test reads.
type healthView struct {
	Entries     int   `json:"entries"`
	BytesParsed int64 `json:"bytes_parsed"`
	Storage     struct {
		Mode           string `json:"mode"`
		SealedSegments int    `json:"sealed_segments"`
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
