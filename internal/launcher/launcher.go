// Package launcher builds the parallel-launch commands (srun, mpirun,
// aprun) the framework uses to start benchmark processes, with the task
// layout and core binding flags each launcher takes. This is the "MPI
// distribution and affinity" half of the paper's §2.3 challenge (2).
package launcher

import (
	"fmt"
	"strings"
)

// Layout is the parallel execution layout of a run.
type Layout struct {
	NumTasks     int
	TasksPerNode int // 0 = fill nodes by CPUs
	CPUsPerTask  int // 0 = 1
}

// Launcher renders the launch command for one benchmark invocation.
type Launcher interface {
	// Name identifies the launcher ("srun", "mpirun", "aprun", "local").
	Name() string
	// Command renders the full launch command line.
	Command(layout Layout, exe string, args []string) string
}

// For resolves a launcher by name (as configured on a platform partition).
func For(name string) (Launcher, error) {
	switch name {
	case "srun":
		return Srun{}, nil
	case "mpirun":
		return Mpirun{}, nil
	case "aprun":
		return Aprun{}, nil
	case "local":
		return Local{}, nil
	default:
		return nil, fmt.Errorf("launcher: unknown launcher %q", name)
	}
}

// Srun is the SLURM launcher.
type Srun struct{}

// Name implements Launcher.
func (Srun) Name() string { return "srun" }

// Command implements Launcher.
func (s Srun) Command(l Layout, exe string, args []string) string {
	parts := []string{"srun", fmt.Sprintf("--ntasks=%d", l.NumTasks)}
	if l.TasksPerNode > 0 {
		parts = append(parts, fmt.Sprintf("--ntasks-per-node=%d", l.TasksPerNode))
	}
	if l.CPUsPerTask > 0 {
		parts = append(parts, fmt.Sprintf("--cpus-per-task=%d", l.CPUsPerTask))
	}
	parts = append(parts, "--cpu-bind=cores", exe)
	return strings.Join(append(parts, args...), " ")
}

// Mpirun is the Open MPI style launcher.
type Mpirun struct{}

// Name implements Launcher.
func (Mpirun) Name() string { return "mpirun" }

// Command implements Launcher.
func (m Mpirun) Command(l Layout, exe string, args []string) string {
	parts := []string{"mpirun", "-np", fmt.Sprintf("%d", l.NumTasks)}
	if l.TasksPerNode > 0 {
		pe := l.CPUsPerTask
		if pe <= 0 {
			pe = 1
		}
		parts = append(parts, fmt.Sprintf("--map-by ppr:%d:node:pe=%d", l.TasksPerNode, pe), "--bind-to core")
	}
	parts = append(parts, exe)
	return strings.Join(append(parts, args...), " ")
}

// Aprun is the Cray ALPS launcher (Isambard XCI).
type Aprun struct{}

// Name implements Launcher.
func (Aprun) Name() string { return "aprun" }

// Command implements Launcher.
func (a Aprun) Command(l Layout, exe string, args []string) string {
	parts := []string{"aprun", "-n", fmt.Sprintf("%d", l.NumTasks)}
	if l.TasksPerNode > 0 {
		parts = append(parts, "-N", fmt.Sprintf("%d", l.TasksPerNode))
	}
	if l.CPUsPerTask > 0 {
		parts = append(parts, "-d", fmt.Sprintf("%d", l.CPUsPerTask))
	}
	parts = append(parts, "-cc", "cpu", exe)
	return strings.Join(append(parts, args...), " ")
}

// Local runs the executable directly, for host execution.
type Local struct{}

// Name implements Launcher.
func (Local) Name() string { return "local" }

// Command implements Launcher.
func (Local) Command(_ Layout, exe string, args []string) string {
	return strings.Join(append([]string{exe}, args...), " ")
}
