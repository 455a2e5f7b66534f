// Package env holds per-system software environments: which compilers a
// system installs, which packages are provided by the system rather than
// built (externals), provider preferences, and scheduler accounting
// details. These are the framework's "system-level Spack configurations"
// (paper §2.2) that make builds reproducible "by anyone else using the
// system default environment" (Principle 4), together with the
// system-specific run details of Principle 5.
package env

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/concretize"
	"repro/internal/repo"
	"repro/internal/spec"
)

// SystemConfig is the software environment of one system.
type SystemConfig struct {
	// System is the canonical system name (matching internal/platform).
	System string

	// Compilers available on the system; the first entry is the system
	// default used when a spec names no compiler.
	Compilers []spec.Compiler

	// Externals are system-provided installations the concretizer may
	// reuse (the system MPI, the system Python, ...).
	Externals []concretize.External

	// Providers maps virtual packages to this system's preferred
	// provider recipe.
	Providers map[string]string

	// Account and QOS are passed to the scheduler (the paper's
	// -J'--account'/-J'--qos=standard' command-line details).
	Account string
	QOS     string

	// EnvVars are exported into every job on this system.
	EnvVars map[string]string
}

// ConcretizeOptions assembles the concretizer inputs for this system.
// targetArch is the partition's instruction-set family (variants named
// "target" default to it).
func (c *SystemConfig) ConcretizeOptions(r *repo.Repository, targetArch string) concretize.Options {
	return concretize.Options{
		Repo:       r,
		Compilers:  c.Compilers,
		Externals:  c.Externals,
		Providers:  c.Providers,
		TargetArch: targetArch,
	}
}

// Registry maps system names to their configurations.
type Registry struct {
	configs map[string]*SystemConfig
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{configs: map[string]*SystemConfig{}} }

// Add registers a system configuration.
func (r *Registry) Add(c *SystemConfig) error {
	if c.System == "" {
		return fmt.Errorf("env: config with empty system name")
	}
	if _, dup := r.configs[c.System]; dup {
		return fmt.Errorf("env: duplicate config for system %q", c.System)
	}
	r.configs[c.System] = c
	return nil
}

// MustAdd is Add for statically known-good configs.
func (r *Registry) MustAdd(c *SystemConfig) {
	if err := r.Add(c); err != nil {
		panic(err)
	}
}

// ForSystem returns the configuration for a system. Unknown systems get
// a minimal default environment — mirroring the framework's behaviour
// that "a basic Spack environment will be automatically created, but no
// system packages will be added" (paper §2.2).
func (r *Registry) ForSystem(name string) *SystemConfig {
	if c, ok := r.configs[name]; ok {
		return c
	}
	return &SystemConfig{
		System: name,
		Compilers: []spec.Compiler{
			{Name: "gcc", Version: spec.ExactVersion("12.1.0")},
		},
	}
}

// Known reports whether the system has an explicit configuration.
func (r *Registry) Known(name string) bool {
	_, ok := r.configs[name]
	return ok
}

// Names lists configured systems, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.configs))
	for n := range r.configs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// --- Environment capture ---------------------------------------------------

// Capture is a snapshot of the execution environment taken around a
// benchmark run, the framework's answer to ad-hoc collect_environment.sh
// scripts: enough to audit a result, without "too much detail around
// irrelevant aspects" (paper §1).
type Capture struct {
	Timestamp time.Time
	Hostname  string
	GoVersion string
	OS        string
	Arch      string
	NumCPU    int
	EnvVars   map[string]string
}

// CaptureEnvironment snapshots the current process environment, keeping
// only variables relevant to performance (the relevant prefixes cover
// threading, placement, and toolchain selection).
func CaptureEnvironment() Capture {
	host, _ := os.Hostname()
	cap := Capture{
		Timestamp: time.Now().UTC(),
		Hostname:  host,
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		EnvVars:   map[string]string{},
	}
	relevant := []string{"OMP_", "GOMAXPROCS", "SLURM_", "PBS_", "MPI", "KMP_", "CUDA_", "HIP_"}
	for _, kv := range os.Environ() {
		k, v, _ := strings.Cut(kv, "=")
		for _, prefix := range relevant {
			if strings.HasPrefix(k, prefix) {
				cap.EnvVars[k] = v
				break
			}
		}
	}
	return cap
}

// YAML renders the configuration as a YAML document, so system
// configurations can be exported, shared, and versioned — the
// "shareable configuration files capturing nuance on different systems"
// of Principle 4.
func (c *SystemConfig) YAML() string {
	var b strings.Builder
	fmt.Fprintf(&b, "system: %s\n", c.System)
	if c.Account != "" {
		fmt.Fprintf(&b, "account: %s\n", c.Account)
	}
	if c.QOS != "" {
		fmt.Fprintf(&b, "qos: %s\n", c.QOS)
	}
	if len(c.Compilers) > 0 {
		b.WriteString("compilers:\n")
		for _, comp := range c.Compilers {
			fmt.Fprintf(&b, "  - %s\n", comp)
		}
	}
	if len(c.Externals) > 0 {
		b.WriteString("externals:\n")
		for _, ext := range c.Externals {
			fmt.Fprintf(&b, "  - spec: %s\n    path: %s\n", ext.Spec.RootString(), ext.Path)
		}
	}
	if len(c.Providers) > 0 {
		b.WriteString("providers:\n")
		for _, k := range sortedStringKeys(c.Providers) {
			fmt.Fprintf(&b, "  %s: %s\n", k, c.Providers[k])
		}
	}
	if len(c.EnvVars) > 0 {
		b.WriteString("env:\n")
		for _, k := range sortedStringKeys(c.EnvVars) {
			fmt.Fprintf(&b, "  %s: %s\n", k, c.EnvVars[k])
		}
	}
	return b.String()
}

func sortedStringKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
