// Package daemon runs benchd as a subprocess for benchload: build it
// from the working tree, start it on a port nothing else answers on,
// time its boot, read its peak memory, and stop it in a way that cannot
// leak it into the next measurement.
package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Build compiles cmd/benchd of the module rooted at root into dir and
// returns the binary's path.
func Build(root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "benchd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/benchd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/benchd: %w\n%s", err, out)
	}
	return bin, nil
}

// Config is where one daemon keeps its state. Every other flag stays at
// benchd's default, so the benchmark measures the daemon as shipped.
type Config struct {
	Bin     string
	Perflog string
	Tree    string
	DataDir string // "" = memory-only store
	Stderr  string // file receiving the daemon's log
}

// Proc is one running benchd.
type Proc struct {
	Base    string // http://127.0.0.1:port
	cmd     *exec.Cmd
	started time.Time
	ended   bool // Stop or Kill already ran
	// exited closes once cmd.Wait has returned waitErr; Wait runs from
	// Start on, so an early death is seen without polling the process.
	exited  chan struct{}
	waitErr error
}

// freePort asks the kernel for an unused loopback port and then proves
// nothing answers on it: a benchd leaked by an earlier, failed run
// would otherwise serve this one's requests from the wrong store.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	if err := l.Close(); err != nil {
		return 0, err
	}
	if c, err := net.DialTimeout("tcp", net.JoinHostPort("127.0.0.1", strconv.Itoa(port)), time.Second); err == nil {
		c.Close()
		return 0, fmt.Errorf("port %d still answers after its listener closed", port)
	}
	return port, nil
}

// Start executes benchd; the boot clock starts here.
func Start(cfg Config) (*Proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(cfg.Stderr, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	args := []string{"--addr", addr, "--perflog", cfg.Perflog, "--tree", cfg.Tree}
	if cfg.DataDir != "" {
		args = append(args, "--data-dir", cfg.DataDir)
	}
	cmd := exec.Command(cfg.Bin, args...)
	cmd.Stderr = logf
	p := &Proc{Base: "http://" + addr, cmd: cmd, started: time.Now(), exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		p.waitErr = cmd.Wait()
		logf.Close()
		close(p.exited)
	}()
	return p, nil
}

// AwaitFirst issues GET path until it answers 200 and returns the time
// from exec to that answer. Connection refusals return at once, so the
// retry spacing (1ms) bounds how late the answer can be noticed. It
// gives up when the process exits or after limit.
func (p *Proc) AwaitFirst(c *http.Client, path string, limit time.Duration) (time.Duration, error) {
	for time.Since(p.started) < limit {
		resp, err := c.Get(p.Base + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(p.started), nil
			}
			return 0, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		select {
		case <-p.exited:
			return 0, fmt.Errorf("benchd exited before answering: %v", p.waitErr)
		case <-time.After(time.Millisecond):
		}
	}
	return 0, fmt.Errorf("benchd did not answer %s within %s", path, limit)
}

// RSSMB reads the daemon's resident set (VmRSS) in MiB.
func (p *Proc) RSSMB() (float64, error) { return p.statusMB("VmRSS") }

// PeakRSSMB reads the daemon's high-water resident set (VmHWM) in MiB.
func (p *Proc) PeakRSSMB() (float64, error) { return p.statusMB("VmHWM") }

func (p *Proc) statusMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatusMB(data, field)
}

// parseStatusMB extracts a "Field:  123 kB" line of /proc/<pid>/status.
func parseStatusMB(status []byte, field string) (float64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(field+":"))
		if !ok {
			continue
		}
		fields := strings.Fields(string(rest))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected %s line %q", field, line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no %s in process status", field)
}

// Stop shuts the daemon down gracefully (SIGTERM: drain, flush, final
// seal) and waits for it to exit; a daemon that ignores the signal for
// a minute is killed. A non-zero exit is an error.
func (p *Proc) Stop() error { return p.end(syscall.SIGTERM) }

// Kill ends the daemon with SIGKILL — the crash the durability check
// needs — and waits for it to be gone.
func (p *Proc) Kill() error { return p.end(syscall.SIGKILL) }

func (p *Proc) end(sig syscall.Signal) error {
	if p.ended {
		return nil
	}
	p.ended = true
	select {
	case <-p.exited:
		return fmt.Errorf("benchd exited on its own: %v", p.waitErr)
	default:
	}
	if err := p.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-p.exited:
		if sig == syscall.SIGKILL {
			return nil
		}
		return p.waitErr
	case <-time.After(time.Minute):
		p.cmd.Process.Kill()
		<-p.exited
		return errors.New("benchd ignored SIGTERM for a minute; killed")
	}
}
