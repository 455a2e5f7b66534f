package scheduler

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// fixedExec returns an Executor that reports the given duration and
// records which jobs ran on which nodes.
func fixedExec(d time.Duration) Executor {
	return func(job *Job, nodes []string) Result {
		return Result{
			Stdout:   fmt.Sprintf("ran %s on %d nodes", job.Name, len(nodes)),
			Duration: d,
		}
	}
}

func TestSimSubmitAndWait(t *testing.T) {
	s, err := NewSim("slurm", 4, 128, fixedExec(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(&Job{Name: "hpgmg", NumTasks: 8, TasksPerNode: 2, CPUsPerTask: 8})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != Completed {
		t.Errorf("state = %s", info.State)
	}
	if len(info.Nodes) != 4 {
		t.Errorf("nodes = %v, want 4 (8 tasks / 2 per node)", info.Nodes)
	}
	if info.Runtime() != 10 {
		t.Errorf("runtime = %g, want 10", info.Runtime())
	}
	if !strings.Contains(info.Stdout, "ran hpgmg") {
		t.Errorf("stdout = %q", info.Stdout)
	}
}

func TestSimQueueingFIFO(t *testing.T) {
	// 2 nodes; each job takes both; three jobs must serialize.
	s, _ := NewSim("slurm", 2, 64, fixedExec(100*time.Second))
	var ids []int
	for i := 0; i < 3; i++ {
		id, err := s.Submit(&Job{Name: fmt.Sprintf("j%d", i), NumTasks: 2, TasksPerNode: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// First job should be running, others pending.
	if info, _ := s.Poll(ids[0]); info.State != Running {
		t.Errorf("job 0 state = %s", info.State)
	}
	if info, _ := s.Poll(ids[2]); info.State != Pending {
		t.Errorf("job 2 state = %s", info.State)
	}
	last, err := s.Wait(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if last.StartTime != 200 {
		t.Errorf("job 2 start = %g, want 200 (FIFO serialization)", last.StartTime)
	}
	if last.QueueWait() != 200 {
		t.Errorf("queue wait = %g", last.QueueWait())
	}
	// Earlier jobs finished in order.
	for i, id := range ids {
		info, _ := s.Poll(id)
		if info.State != Completed {
			t.Errorf("job %d state = %s", i, info.State)
		}
		if want := float64((i + 1) * 100); info.EndTime != want {
			t.Errorf("job %d end = %g, want %g", i, info.EndTime, want)
		}
	}
}

func TestSimParallelJobsShareNodes(t *testing.T) {
	// 4 nodes, two 2-node jobs run concurrently.
	s, _ := NewSim("slurm", 4, 64, fixedExec(50*time.Second))
	a, _ := s.Submit(&Job{Name: "a", NumTasks: 2, TasksPerNode: 1})
	b, _ := s.Submit(&Job{Name: "b", NumTasks: 2, TasksPerNode: 1})
	ia, _ := s.Wait(a)
	ib, _ := s.Wait(b)
	if ia.StartTime != 0 || ib.StartTime != 0 {
		t.Errorf("both jobs should start immediately: %g, %g", ia.StartTime, ib.StartTime)
	}
	// No node is shared.
	used := map[string]bool{}
	for _, n := range append(append([]string{}, ia.Nodes...), ib.Nodes...) {
		if used[n] {
			t.Errorf("node %s double-allocated", n)
		}
		used[n] = true
	}
}

func TestSimNoOversubscriptionProperty(t *testing.T) {
	// Property: with random job sizes, allocated node sets of
	// concurrently running jobs never overlap and never exceed the pool.
	r := rand.New(rand.NewSource(42))
	const pool = 8
	s, _ := NewSim("slurm", pool, 64, func(job *Job, nodes []string) Result {
		return Result{Duration: time.Duration(1+len(job.Name)%7) * time.Second}
	})
	var ids []int
	for i := 0; i < 50; i++ {
		tasks := 1 + r.Intn(16)
		id, err := s.Submit(&Job{Name: fmt.Sprintf("job-%02d", i), NumTasks: tasks, TasksPerNode: 2})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		// Check invariant after each event.
		checkNoOverlap(t, s, ids, pool)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		info, _ := s.Poll(id)
		if !info.State.Terminal() {
			t.Errorf("job %d not terminal after drain", id)
		}
	}
}

func checkNoOverlap(t *testing.T, s *Sim, ids []int, pool int) {
	t.Helper()
	used := map[string]int{}
	total := 0
	for _, id := range ids {
		info, err := s.Poll(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != Running {
			continue
		}
		for _, n := range info.Nodes {
			if prev, clash := used[n]; clash {
				t.Fatalf("node %s allocated to jobs %d and %d", n, prev, id)
			}
			used[n] = id
			total++
		}
	}
	if total > pool {
		t.Fatalf("%d nodes allocated from a pool of %d", total, pool)
	}
}

func TestSimRejectsImpossibleJobs(t *testing.T) {
	s, _ := NewSim("slurm", 2, 16, fixedExec(time.Second))
	// More cpus per node than exist.
	if _, err := s.Submit(&Job{Name: "fat", NumTasks: 1, TasksPerNode: 1, CPUsPerTask: 32}); err == nil {
		t.Error("oversized job accepted")
	}
	// More nodes than the partition has.
	if _, err := s.Submit(&Job{Name: "wide", NumTasks: 64, TasksPerNode: 1}); err == nil {
		t.Error("too-wide job accepted")
	}
	// Invalid job parameters.
	if _, err := s.Submit(&Job{Name: "", NumTasks: 1}); err == nil {
		t.Error("unnamed job accepted")
	}
	if _, err := s.Submit(&Job{Name: "none", NumTasks: 0}); err == nil {
		t.Error("zero-task job accepted")
	}
}

func TestSimTimeout(t *testing.T) {
	s, _ := NewSim("slurm", 1, 16, fixedExec(2*time.Hour))
	id, err := s.Submit(&Job{Name: "slow", NumTasks: 1, TimeLimit: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != TimedOut {
		t.Errorf("state = %s, want TIMEOUT", info.State)
	}
	if info.Runtime() != 60 {
		t.Errorf("runtime = %g, want 60 (killed at limit)", info.Runtime())
	}
}

func TestSlurmScript(t *testing.T) {
	s, _ := NewSim("slurm", 8, 128, fixedExec(time.Second))
	// The paper's ARCHER2 HPGMG job: 8 tasks, 2 per node, 8 cpus each,
	// qos standard.
	job := &Job{
		Name:         "hpgmg-fv",
		Account:      "z19",
		QOS:          "standard",
		NumTasks:     8,
		TasksPerNode: 2,
		CPUsPerTask:  8,
		TimeLimit:    30 * time.Minute,
		Env:          map[string]string{"OMP_PLACES": "cores"},
		Commands:     []string{"srun ./hpgmg-fv 7 8"},
	}
	script := s.Script(job)
	for _, want := range []string{
		"#SBATCH --job-name=hpgmg-fv",
		"#SBATCH --account=z19",
		"#SBATCH --qos=standard",
		"#SBATCH --nodes=4",
		"#SBATCH --ntasks=8",
		"#SBATCH --ntasks-per-node=2",
		"#SBATCH --cpus-per-task=8",
		"#SBATCH --time=00:30:00",
		`export OMP_PLACES="cores"`,
		"srun ./hpgmg-fv 7 8",
	} {
		if !strings.Contains(script, want) {
			t.Errorf("slurm script missing %q:\n%s", want, script)
		}
	}
}

func TestPBSScript(t *testing.T) {
	s, _ := NewSim("pbs", 4, 40, fixedExec(time.Second))
	job := &Job{
		Name:         "babelstream",
		Account:      "br-train",
		NumTasks:     2,
		TasksPerNode: 1,
		CPUsPerTask:  40,
		Commands:     []string{"aprun -n 2 ./babelstream"},
	}
	script := s.Script(job)
	for _, want := range []string{
		"#PBS -N babelstream",
		"#PBS -A br-train",
		"#PBS -l select=2:ncpus=40:mpiprocs=1",
		"cd $PBS_O_WORKDIR",
		"aprun -n 2 ./babelstream",
	} {
		if !strings.Contains(script, want) {
			t.Errorf("pbs script missing %q:\n%s", want, script)
		}
	}
}

func TestNodeNamesDiffer(t *testing.T) {
	slurm, _ := NewSim("slurm", 1, 4, fixedExec(time.Second))
	pbs, _ := NewSim("pbs", 1, 4, fixedExec(time.Second))
	a, _ := slurm.Submit(&Job{Name: "x", NumTasks: 1})
	b, _ := pbs.Submit(&Job{Name: "x", NumTasks: 1})
	ia, _ := slurm.Wait(a)
	ib, _ := pbs.Wait(b)
	if !strings.HasPrefix(ia.Nodes[0], "nid") {
		t.Errorf("slurm node = %s", ia.Nodes[0])
	}
	if !strings.HasPrefix(ib.Nodes[0], "cn") {
		t.Errorf("pbs node = %s", ib.Nodes[0])
	}
}

func TestNewSimValidation(t *testing.T) {
	if _, err := NewSim("lsf", 1, 1, fixedExec(time.Second)); err == nil {
		t.Error("unknown dialect accepted")
	}
	if _, err := NewSim("slurm", 0, 1, fixedExec(time.Second)); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewSim("slurm", 1, 1, nil); err == nil {
		t.Error("nil executor accepted")
	}
}

func TestLocalScheduler(t *testing.T) {
	ran := false
	l, err := NewLocal(func(job *Job, nodes []string) Result {
		ran = true
		if len(nodes) != 1 || nodes[0] != "localhost" {
			t.Errorf("nodes = %v", nodes)
		}
		return Result{Stdout: "ok", Duration: 2 * time.Second}
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := l.Submit(&Job{Name: "quick", NumTasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("local job did not run")
	}
	info, err := l.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != Completed || info.Stdout != "ok" {
		t.Errorf("info = %+v", info)
	}
	if info.Runtime() != 2 {
		t.Errorf("runtime = %g", info.Runtime())
	}
	if _, err := l.Poll(999); err == nil {
		t.Error("unknown job accepted")
	}
}

func TestLocalFailurePropagates(t *testing.T) {
	l, _ := NewLocal(func(job *Job, nodes []string) Result {
		return Result{Stderr: "boom", ExitCode: 3, Duration: time.Second}
	})
	id, _ := l.Submit(&Job{Name: "bad", NumTasks: 1})
	info, _ := l.Wait(id)
	if info.State != Failed || info.ExitCode != 3 || info.Stderr != "boom" {
		t.Errorf("info = %+v", info)
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Pending: "PENDING", Running: "RUNNING", Completed: "COMPLETED",
		Failed: "FAILED", TimedOut: "TIMEOUT",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %s", s, s.String())
		}
	}
	if Pending.Terminal() || Running.Terminal() {
		t.Error("pending/running are not terminal")
	}
	if !Completed.Terminal() || !TimedOut.Terminal() {
		t.Error("completed/timeout are terminal")
	}
}

func TestDefaultTasksPerNodePacking(t *testing.T) {
	// TasksPerNode=0 packs by cpus: 128-core nodes, 8 cpus/task -> 16
	// tasks/node, so 32 tasks need 2 nodes.
	s, _ := NewSim("slurm", 4, 128, fixedExec(time.Second))
	id, err := s.Submit(&Job{Name: "packed", NumTasks: 32, CPUsPerTask: 8})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := s.Wait(id)
	if len(info.Nodes) != 2 {
		t.Errorf("nodes = %d, want 2", len(info.Nodes))
	}
}

func TestBackfillLetsSmallJobsThrough(t *testing.T) {
	// 4 nodes. A 3-node job runs for 100 s; a 4-node job waits at the
	// head; a 1-node 10 s job behind it can backfill into the idle node
	// (it finishes at t=10, well before the head can start at t=100).
	s, _ := NewSim("slurm", 4, 64, func(job *Job, nodes []string) Result {
		switch job.Name {
		case "long", "head":
			return Result{Duration: 100 * time.Second}
		default:
			return Result{Duration: 10 * time.Second}
		}
	})
	s.Backfill = true
	long, _ := s.Submit(&Job{Name: "long", NumTasks: 3, TasksPerNode: 1})
	head, _ := s.Submit(&Job{Name: "head", NumTasks: 4, TasksPerNode: 1})
	small, _ := s.Submit(&Job{Name: "small", NumTasks: 1, TimeLimit: 20 * time.Second})
	if info, _ := s.Poll(small); info.State != Running {
		t.Fatalf("small job not backfilled: %s", info.State)
	}
	si, _ := s.Wait(small)
	if si.StartTime != 0 {
		t.Errorf("small started at %g, want 0 (backfilled)", si.StartTime)
	}
	hi, _ := s.Wait(head)
	if hi.StartTime != 100 {
		t.Errorf("head start = %g, want 100 (not delayed by backfill)", hi.StartTime)
	}
	li, _ := s.Wait(long)
	if li.EndTime != 100 {
		t.Errorf("long end = %g", li.EndTime)
	}
}

func TestBackfillRespectsReservation(t *testing.T) {
	// A small job whose time limit extends past the head's reservation
	// must NOT backfill (it could delay the head).
	s, _ := NewSim("slurm", 4, 64, fixedExec(100*time.Second))
	s.Backfill = true
	_, _ = s.Submit(&Job{Name: "long", NumTasks: 3, TasksPerNode: 1})
	_, _ = s.Submit(&Job{Name: "head", NumTasks: 4, TasksPerNode: 1})
	greedy, _ := s.Submit(&Job{Name: "greedy", NumTasks: 1, TimeLimit: 500 * time.Second})
	if info, _ := s.Poll(greedy); info.State != Pending {
		t.Errorf("greedy job backfilled despite long time limit: %s", info.State)
	}
	// Off by default: same scenario without Backfill keeps FIFO.
	s2, _ := NewSim("slurm", 4, 64, fixedExec(100*time.Second))
	_, _ = s2.Submit(&Job{Name: "long", NumTasks: 3, TasksPerNode: 1})
	_, _ = s2.Submit(&Job{Name: "head", NumTasks: 4, TasksPerNode: 1})
	small, _ := s2.Submit(&Job{Name: "small", NumTasks: 1, TimeLimit: 10 * time.Second})
	if info, _ := s2.Poll(small); info.State != Pending {
		t.Errorf("job backfilled with Backfill disabled: %s", info.State)
	}
}

func TestBackfillInvariantsUnderLoad(t *testing.T) {
	// The no-oversubscription property holds with backfill on and random
	// job mixes, and everything drains.
	r := rand.New(rand.NewSource(7))
	const pool = 8
	s, _ := NewSim("slurm", pool, 64, func(job *Job, nodes []string) Result {
		return Result{Duration: time.Duration(1+len(job.Name)%9) * time.Second}
	})
	s.Backfill = true
	var ids []int
	for i := 0; i < 60; i++ {
		id, err := s.Submit(&Job{
			Name:      fmt.Sprintf("job-%02d-%s", i, strings.Repeat("x", r.Intn(5))),
			NumTasks:  1 + r.Intn(12),
			TimeLimit: time.Duration(5+r.Intn(20)) * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		checkNoOverlap(t, s, ids, pool)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		info, _ := s.Poll(id)
		if !info.State.Terminal() {
			t.Errorf("job %d stuck in %s", id, info.State)
		}
	}
}
