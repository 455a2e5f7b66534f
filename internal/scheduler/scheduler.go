// Package scheduler provides the job schedulers benchmarks run through:
// simulated SLURM and PBS (the systems of Table 5 run one or the other)
// and a pass-through local scheduler for host execution.
//
// The simulated schedulers reproduce the behaviour the framework depends
// on (paper §2.3, challenge (2)): batch-script generation from job
// requirements, account/QOS handling, node allocation with a FIFO queue,
// and job lifecycle states. Job payloads are executed by a caller-supplied
// Executor, which is where the machine model (or real host code) plugs in.
package scheduler

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Job describes one batch job: the resources it needs and the commands it
// runs. The resource triple (NumTasks, TasksPerNode, CPUsPerTask) follows
// ReFrame's num_tasks / num_tasks_per_node / num_cpus_per_task variables,
// which the paper sets on the command line for HPGMG.
type Job struct {
	Name    string
	Account string
	QOS     string

	NumTasks     int
	TasksPerNode int // 0 = pack as many as fit
	CPUsPerTask  int // 0 = 1

	TimeLimit time.Duration // 0 = scheduler default
	Env       map[string]string
	Commands  []string
}

// Normalize fills defaulted fields and validates the rest.
func (j *Job) Normalize() error {
	if j.Name == "" {
		return fmt.Errorf("scheduler: job needs a name")
	}
	if j.NumTasks <= 0 {
		return fmt.Errorf("scheduler: job %s: NumTasks must be positive", j.Name)
	}
	if j.CPUsPerTask <= 0 {
		j.CPUsPerTask = 1
	}
	if j.TasksPerNode < 0 {
		return fmt.Errorf("scheduler: job %s: negative TasksPerNode", j.Name)
	}
	if j.TimeLimit == 0 {
		j.TimeLimit = time.Hour
	}
	return nil
}

// State is the lifecycle state of a submitted job.
type State int

const (
	Pending State = iota
	Running
	Completed
	Failed
	TimedOut
)

func (s State) String() string {
	switch s {
	case Pending:
		return "PENDING"
	case Running:
		return "RUNNING"
	case Completed:
		return "COMPLETED"
	case Failed:
		return "FAILED"
	case TimedOut:
		return "TIMEOUT"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Terminal reports whether no further state changes can occur.
func (s State) Terminal() bool { return s >= Completed }

// Info is the observable record of a submitted job.
type Info struct {
	ID       int
	Job      *Job
	State    State
	ExitCode int
	Stdout   string
	Stderr   string
	Nodes    []string // allocated node names

	// Simulated wall-clock seconds since scheduler start.
	SubmitTime float64
	StartTime  float64
	EndTime    float64
}

// QueueWait returns how long the job sat in the queue (simulated seconds).
func (i *Info) QueueWait() float64 {
	if i.State == Pending {
		return -1
	}
	return i.StartTime - i.SubmitTime
}

// Runtime returns the job's execution time (simulated seconds).
func (i *Info) Runtime() float64 {
	if !i.State.Terminal() {
		return -1
	}
	return i.EndTime - i.StartTime
}

// Result is what an Executor reports for one job payload.
type Result struct {
	Stdout   string
	Stderr   string
	ExitCode int
	// Duration is the job's simulated (or measured) execution time.
	Duration time.Duration
}

// Executor runs a job's payload on its allocated nodes. For simulated
// systems this is the machine model; for the local scheduler the payload
// really executes on the host.
type Executor func(job *Job, nodes []string) Result

// Scheduler is the interface the framework drives.
type Scheduler interface {
	// Name identifies the scheduler dialect ("slurm", "pbs", "local").
	Name() string
	// Submit enqueues the job and returns its ID.
	Submit(job *Job) (int, error)
	// Poll reports a snapshot of a job.
	Poll(id int) (*Info, error)
	// Wait advances the scheduler until the job reaches a terminal state.
	Wait(id int) (*Info, error)
	// Script renders the batch script that expresses the job in the
	// scheduler's submission language, for audit (Principle 5).
	Script(job *Job) string
}

// renderEnv renders job environment exports in sorted order.
func renderEnv(env map[string]string) []string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, 0, len(keys))
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("export %s=%q", k, env[k]))
	}
	return lines
}

// nodesNeeded computes the node count for a job on nodes with the given
// core count, and the effective tasks-per-node.
func nodesNeeded(j *Job, coresPerNode int) (nodes, tasksPerNode int, err error) {
	tpn := j.TasksPerNode
	if tpn == 0 {
		tpn = coresPerNode / j.CPUsPerTask
		if tpn < 1 {
			tpn = 1
		}
	}
	if tpn*j.CPUsPerTask > coresPerNode {
		return 0, 0, fmt.Errorf("scheduler: job %s needs %d cpus/node but nodes have %d",
			j.Name, tpn*j.CPUsPerTask, coresPerNode)
	}
	n := (j.NumTasks + tpn - 1) / tpn
	return n, tpn, nil
}

func formatDuration(d time.Duration) string {
	total := int(d.Seconds())
	return fmt.Sprintf("%02d:%02d:%02d", total/3600, (total%3600)/60, total%60)
}

func joinCommands(cmds []string) string {
	return strings.Join(cmds, "\n")
}
