package scheduler

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/faultinject"
)

// dialect captures what differs between the SLURM and PBS simulators:
// batch-script syntax and node naming.
type dialect interface {
	name() string
	nodeName(i int) string
	script(j *Job, nodes, tasksPerNode int) string
}

// Sim is a discrete-event simulated batch scheduler over a fixed pool of
// identical nodes. Jobs are started FIFO as soon as enough nodes are
// free; payload durations come from the Executor. Time is virtual — a
// Wait over a full queue completes immediately in real time.
//
// A job gets the lowest-numbered free nodes. The free pool is held as
// node-index ranges and only the nodes a job receives are ever named, so
// what a job costs depends on its size, not on the partition's.
type Sim struct {
	d            dialect
	totalNodes   int
	coresPerNode int
	exec         Executor

	// Backfill enables EASY backfilling: while the queue head waits for
	// nodes, later jobs may start if they fit in the currently free
	// nodes and their time limit guarantees they finish before the head
	// job's earliest possible start.
	Backfill bool

	clock    float64 // virtual seconds since scheduler start
	nextID   int
	jobs     map[int]*Info
	queue    []int           // pending job IDs, FIFO
	running  map[int]float64 // job ID -> virtual end time
	timedOut map[int]bool    // running jobs that will hit their limit
	free     []span          // free node ranges: sorted, disjoint, never adjacent
	nfree    int             // nodes in free
	held     map[int][]span  // running job ID -> its node ranges
}

// span is the half-open node-index range [lo, hi).
type span struct{ lo, hi int }

// NewSim builds a simulated scheduler with the given dialect name
// ("slurm" or "pbs"), node pool, and payload executor.
func NewSim(dialectName string, totalNodes, coresPerNode int, exec Executor) (*Sim, error) {
	var d dialect
	switch dialectName {
	case "slurm":
		d = slurmDialect{}
	case "pbs":
		d = pbsDialect{}
	default:
		return nil, fmt.Errorf("scheduler: unknown dialect %q", dialectName)
	}
	if totalNodes <= 0 || coresPerNode <= 0 {
		return nil, fmt.Errorf("scheduler: need positive node pool (%d nodes, %d cores)", totalNodes, coresPerNode)
	}
	if exec == nil {
		return nil, fmt.Errorf("scheduler: nil executor")
	}
	s := &Sim{
		d:            d,
		totalNodes:   totalNodes,
		coresPerNode: coresPerNode,
		exec:         exec,
		nextID:       1,
		jobs:         map[int]*Info{},
		running:      map[int]float64{},
		timedOut:     map[int]bool{},
		free:         []span{{0, totalNodes}},
		nfree:        totalNodes,
		held:         map[int][]span{},
	}
	return s, nil
}

// Name implements Scheduler.
func (s *Sim) Name() string { return s.d.name() }

// FreeNodes reports how many nodes are currently unallocated.
func (s *Sim) FreeNodes() int { return s.nfree }

// Clock reports the current virtual time in seconds.
func (s *Sim) Clock() float64 { return s.clock }

// Submit implements Scheduler. The "scheduler.submit" injection point
// models the batch controller rejecting transiently.
func (s *Sim) Submit(job *Job) (int, error) {
	if err := job.Normalize(); err != nil {
		return 0, err
	}
	if err := faultinject.Fire("scheduler.submit"); err != nil {
		return 0, fmt.Errorf("scheduler: submit %s: %w", job.Name, err)
	}
	nodes, _, err := nodesNeeded(job, s.coresPerNode)
	if err != nil {
		return 0, err
	}
	if nodes > s.totalNodes {
		return 0, fmt.Errorf("scheduler: job %s needs %d nodes, partition has %d", job.Name, nodes, s.totalNodes)
	}
	id := s.nextID
	s.nextID++
	s.jobs[id] = &Info{ID: id, Job: job, State: Pending, SubmitTime: s.clock}
	s.queue = append(s.queue, id)
	s.schedule()
	return id, nil
}

// Poll implements Scheduler. The "scheduler.poll" injection point
// models squeue/qstat timing out.
func (s *Sim) Poll(id int) (*Info, error) {
	if err := faultinject.Fire("scheduler.poll"); err != nil {
		return nil, fmt.Errorf("scheduler: poll %d: %w", id, err)
	}
	info, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("scheduler: no job %d", id)
	}
	snapshot := *info
	return &snapshot, nil
}

// Wait implements Scheduler: advance virtual time until the job is done.
func (s *Sim) Wait(id int) (*Info, error) {
	info, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("scheduler: no job %d", id)
	}
	for !info.State.Terminal() {
		if !s.step() {
			return nil, fmt.Errorf("scheduler: deadlock waiting for job %d (%s)", id, info.State)
		}
	}
	return s.Poll(id)
}

// Drain advances the simulation until every submitted job is terminal.
func (s *Sim) Drain() error {
	for {
		busy := false
		for _, info := range s.jobs {
			if !info.State.Terminal() {
				busy = true
				break
			}
		}
		if !busy {
			return nil
		}
		if !s.step() {
			return fmt.Errorf("scheduler: deadlock with %d running, %d queued", len(s.running), len(s.queue))
		}
	}
}

// Cancel implements Scheduler.
func (s *Sim) Cancel(id int) error {
	info, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("scheduler: no job %d", id)
	}
	switch info.State {
	case Pending:
		for i, qid := range s.queue {
			if qid == id {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
	case Running:
		s.releaseNodes(id)
		delete(s.running, id)
		delete(s.timedOut, id)
	default:
		return fmt.Errorf("scheduler: job %d already %s", id, info.State)
	}
	info.State = Cancelled
	info.EndTime = s.clock
	return nil
}

// Script implements Scheduler.
func (s *Sim) Script(job *Job) string {
	j := *job
	if err := j.Normalize(); err != nil {
		return "# invalid job: " + err.Error()
	}
	nodes, tpn, err := nodesNeeded(&j, s.coresPerNode)
	if err != nil {
		return "# invalid job: " + err.Error()
	}
	return s.d.script(&j, nodes, tpn)
}

// step advances the simulation by one event: finish the earliest-ending
// running job, then start whatever now fits. Returns false if nothing can
// make progress.
func (s *Sim) step() bool {
	if len(s.running) == 0 {
		// Nothing running; starting is the only possible progress.
		return s.schedule()
	}
	// Find earliest completion.
	bestID, bestEnd := 0, 0.0
	first := true
	for id, end := range s.running {
		if first || end < bestEnd || (end == bestEnd && id < bestID) {
			bestID, bestEnd, first = id, end, false
		}
	}
	s.clock = bestEnd
	info := s.jobs[bestID]
	delete(s.running, bestID)
	s.releaseNodes(bestID)
	info.EndTime = s.clock
	switch {
	case s.timedOut[bestID]:
		delete(s.timedOut, bestID)
		info.State = TimedOut
	case info.ExitCode != 0:
		info.State = Failed
	default:
		info.State = Completed
	}
	s.schedule()
	return true
}

// schedule starts queued jobs FIFO while nodes are available. Returns
// true if at least one job started.
func (s *Sim) schedule() bool {
	started := false
	for len(s.queue) > 0 {
		id := s.queue[0]
		info := s.jobs[id]
		nodes, _, err := nodesNeeded(info.Job, s.coresPerNode)
		if err != nil {
			// Validated at submit; defensive.
			s.queue = s.queue[1:]
			info.State = Failed
			info.Stderr = err.Error()
			info.EndTime = s.clock
			continue
		}
		if nodes > s.nfree {
			// The head does not fit. With backfilling enabled, later
			// jobs may slip through; either way the head keeps its
			// place in line.
			if s.Backfill {
				started = s.backfill(nodes) || started
			}
			break
		}
		s.queue = s.queue[1:]
		s.start(id, nodes)
		started = true
	}
	return started
}

// start allocates nodes and launches the payload for a queued job.
func (s *Sim) start(id, nodes int) {
	info := s.jobs[id]
	held := s.take(nodes)
	s.held[id] = held
	info.Nodes = make([]string, 0, nodes)
	for _, r := range held {
		for i := r.lo; i < r.hi; i++ {
			info.Nodes = append(info.Nodes, s.d.nodeName(i))
		}
	}
	info.State = Running
	info.StartTime = s.clock

	res := s.exec(info.Job, info.Nodes)
	info.Stdout = res.Stdout
	info.Stderr = res.Stderr
	info.ExitCode = res.ExitCode
	dur := res.Duration.Seconds()
	if dur <= 0 {
		dur = 1e-6
	}
	if res.Duration > info.Job.TimeLimit {
		dur = info.Job.TimeLimit.Seconds()
		s.timedOut[id] = true
		info.ExitCode = 1
	}
	s.running[id] = s.clock + dur
}

// backfill implements the EASY policy: estimate when the blocked head
// job could start at the earliest (as running jobs release nodes), then
// start any later queued job that fits in the free nodes now and whose
// time limit ends before that reservation. headNeed is the head job's
// node requirement. Returns true if any job started.
func (s *Sim) backfill(headNeed int) bool {
	reservation, ok := s.headStartEstimate(headNeed)
	if !ok {
		return false
	}
	started := false
	for i := 1; i < len(s.queue); {
		id := s.queue[i]
		info := s.jobs[id]
		nodes, _, err := nodesNeeded(info.Job, s.coresPerNode)
		if err != nil {
			i++
			continue
		}
		fits := nodes <= s.nfree
		finishesInTime := s.clock+info.Job.TimeLimit.Seconds() <= reservation
		if !fits || !finishesInTime {
			i++
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.start(id, nodes)
		started = true
		// Do not advance i: the next candidate shifted into position i.
	}
	return started
}

// headStartEstimate returns the virtual time at which headNeed nodes will
// be available, assuming every running job runs to its recorded end.
func (s *Sim) headStartEstimate(headNeed int) (float64, bool) {
	avail := s.nfree
	if avail >= headNeed {
		return s.clock, true
	}
	type release struct {
		at    float64
		nodes int
	}
	var releases []release
	for id, end := range s.running {
		releases = append(releases, release{at: end, nodes: len(s.jobs[id].Nodes)})
	}
	sort.Slice(releases, func(i, j int) bool { return releases[i].at < releases[j].at })
	for _, r := range releases {
		avail += r.nodes
		if avail >= headNeed {
			return r.at, true
		}
	}
	return 0, false
}

// take removes the n lowest-numbered free nodes from the pool and
// returns them as ranges. The caller has checked that n nodes are free.
func (s *Sim) take(n int) []span {
	var got []span
	s.nfree -= n
	for n > 0 {
		r := &s.free[0]
		k := min(n, r.hi-r.lo)
		got = append(got, span{r.lo, r.lo + k})
		r.lo += k
		n -= k
		if r.lo == r.hi {
			s.free = s.free[1:]
		}
	}
	return got
}

// releaseNodes returns a running job's ranges to the pool, merging each
// with the free ranges it touches.
func (s *Sim) releaseNodes(id int) {
	for _, r := range s.held[id] {
		s.nfree += r.hi - r.lo
		// Every free range before i ends at or before r.lo.
		i := sort.Search(len(s.free), func(i int) bool { return s.free[i].lo >= r.hi })
		left := i > 0 && s.free[i-1].hi == r.lo
		right := i < len(s.free) && s.free[i].lo == r.hi
		switch {
		case left && right:
			s.free[i-1].hi = s.free[i].hi
			s.free = slices.Delete(s.free, i, i+1)
		case left:
			s.free[i-1].hi = r.hi
		case right:
			s.free[i].lo = r.lo
		default:
			s.free = slices.Insert(s.free, i, r)
		}
	}
	delete(s.held, id)
}
