package scheduler

import (
	"fmt"
	"time"

	"repro/internal/faultinject"
)

// Local executes jobs immediately on the host, one at a time, in
// submission order. It gives the framework a uniform Scheduler interface
// for real (non-simulated) runs.
type Local struct {
	exec   Executor
	nextID int
	jobs   map[int]*Info
	clock  float64
}

// NewLocal returns a local scheduler delegating payloads to exec.
func NewLocal(exec Executor) (*Local, error) {
	if exec == nil {
		return nil, fmt.Errorf("scheduler: nil executor")
	}
	return &Local{exec: exec, nextID: 1, jobs: map[int]*Info{}}, nil
}

// Name implements Scheduler.
func (l *Local) Name() string { return "local" }

// Submit implements Scheduler: the job runs synchronously. The
// "scheduler.submit" injection point models the sbatch/qsub front end
// rejecting transiently (a controller timeout, a full queue).
func (l *Local) Submit(job *Job) (int, error) {
	if err := job.Normalize(); err != nil {
		return 0, err
	}
	if err := faultinject.Fire("scheduler.submit"); err != nil {
		return 0, fmt.Errorf("scheduler: submit %s: %w", job.Name, err)
	}
	id := l.nextID
	l.nextID++
	info := &Info{
		ID:         id,
		Job:        job,
		State:      Running,
		Nodes:      []string{"localhost"},
		SubmitTime: l.clock,
		StartTime:  l.clock,
	}
	l.jobs[id] = info

	wallStart := time.Now()
	res := l.exec(job, info.Nodes)
	elapsed := res.Duration
	if elapsed <= 0 {
		elapsed = time.Since(wallStart)
	}
	l.clock += elapsed.Seconds()
	info.EndTime = l.clock
	info.Stdout = res.Stdout
	info.Stderr = res.Stderr
	info.ExitCode = res.ExitCode
	if res.ExitCode == 0 {
		info.State = Completed
	} else {
		info.State = Failed
	}
	return id, nil
}

// Poll implements Scheduler. The "scheduler.poll" injection point
// models squeue/qstat timing out.
func (l *Local) Poll(id int) (*Info, error) {
	if err := faultinject.Fire("scheduler.poll"); err != nil {
		return nil, fmt.Errorf("scheduler: poll %d: %w", id, err)
	}
	info, ok := l.jobs[id]
	if !ok {
		return nil, fmt.Errorf("scheduler: no job %d", id)
	}
	snapshot := *info
	return &snapshot, nil
}

// Wait implements Scheduler; local jobs are already complete by the time
// Submit returns.
func (l *Local) Wait(id int) (*Info, error) { return l.Poll(id) }

// Script implements Scheduler: a plain shell script.
func (l *Local) Script(job *Job) string {
	j := *job
	if err := j.Normalize(); err != nil {
		return "# invalid job: " + err.Error()
	}
	out := "#!/bin/bash\n"
	for _, line := range renderEnv(j.Env) {
		out += line + "\n"
	}
	return out + joinCommands(j.Commands) + "\n"
}
