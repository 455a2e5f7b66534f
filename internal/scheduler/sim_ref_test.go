package scheduler

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// The pre-range simulator, kept as the reference the range pool is
// property-tested against: the free pool is every free node's name, the
// first n names go to a job and a release re-sorts the whole pool. Node
// names fit their zero padding on every pool tested here, so its lexical
// order is node-number order and every job must get exactly the nodes it
// gets here.
type refSim struct {
	d            dialect
	totalNodes   int
	coresPerNode int
	exec         Executor
	backfill     bool

	clock    float64
	nextID   int
	jobs     map[int]*Info
	queue    []int
	running  map[int]float64
	timedOut map[int]bool
	free     []string
}

func newRefSim(d dialect, totalNodes, coresPerNode int, exec Executor) *refSim {
	s := &refSim{
		d: d, totalNodes: totalNodes, coresPerNode: coresPerNode, exec: exec,
		nextID: 1, jobs: map[int]*Info{}, running: map[int]float64{}, timedOut: map[int]bool{},
	}
	for i := 0; i < totalNodes; i++ {
		s.free = append(s.free, d.nodeName(i))
	}
	return s
}

func (s *refSim) Submit(job *Job) (int, error) {
	if err := job.Normalize(); err != nil {
		return 0, err
	}
	nodes, _, err := nodesNeeded(job, s.coresPerNode)
	if err != nil {
		return 0, err
	}
	if nodes > s.totalNodes {
		return 0, fmt.Errorf("too wide")
	}
	id := s.nextID
	s.nextID++
	s.jobs[id] = &Info{ID: id, Job: job, State: Pending, SubmitTime: s.clock}
	s.queue = append(s.queue, id)
	s.schedule()
	return id, nil
}

func (s *refSim) Poll(id int) (*Info, error) {
	info, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("no job %d", id)
	}
	snapshot := *info
	return &snapshot, nil
}

func (s *refSim) Wait(id int) (*Info, error) {
	info, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("no job %d", id)
	}
	for !info.State.Terminal() {
		if !s.step() {
			return nil, fmt.Errorf("deadlock")
		}
	}
	return s.Poll(id)
}

func (s *refSim) Drain() error {
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
			return fmt.Errorf("deadlock")
		}
	}
}

func (s *refSim) step() bool {
	if len(s.running) == 0 {
		return s.schedule()
	}
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
	s.releaseNodes(info)
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

func (s *refSim) schedule() bool {
	started := false
	for len(s.queue) > 0 {
		id := s.queue[0]
		info := s.jobs[id]
		nodes, _, err := nodesNeeded(info.Job, s.coresPerNode)
		if err != nil {
			s.queue = s.queue[1:]
			info.State = Failed
			info.Stderr = err.Error()
			info.EndTime = s.clock
			continue
		}
		if nodes > len(s.free) {
			if s.backfill {
				started = s.backfillJobs(nodes) || started
			}
			break
		}
		s.queue = s.queue[1:]
		s.start(id, nodes)
		started = true
	}
	return started
}

func (s *refSim) start(id, nodes int) {
	info := s.jobs[id]
	alloc := s.free[:nodes]
	s.free = s.free[nodes:]
	info.Nodes = append([]string(nil), alloc...)
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

func (s *refSim) backfillJobs(headNeed int) bool {
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
		fits := nodes <= len(s.free)
		finishesInTime := s.clock+info.Job.TimeLimit.Seconds() <= reservation
		if !fits || !finishesInTime {
			i++
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		s.start(id, nodes)
		started = true
	}
	return started
}

func (s *refSim) headStartEstimate(headNeed int) (float64, bool) {
	avail := len(s.free)
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

func (s *refSim) releaseNodes(info *Info) {
	s.free = append(s.free, info.Nodes...)
	sort.Strings(s.free)
}

// TestSimMatchesReference replays seeded random job streams — sizes from
// one node to the whole pool, random durations and time limits (time-outs
// included), failures, backfill on and off, both dialects, pools of 1
// to 2 000 nodes — through the
// simulator and the reference. After every operation both must return
// the same thing, every job must look the same in both, and the range
// pool must be well formed.
func TestSimMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		dialectName := []string{"slurm", "pbs"}[seed%2]
		pool := 1 + r.Intn(16)
		if seed%3 == 0 {
			pool = 1 + r.Intn(2000)
		}
		const cores = 8
		results := map[string]Result{}
		exec := func(job *Job, nodes []string) Result {
			res := results[job.Name]
			res.Stdout = fmt.Sprintf("%s on %s..%s", job.Name, nodes[0], nodes[len(nodes)-1])
			return res
		}
		s, err := NewSim(dialectName, pool, cores, exec)
		if err != nil {
			t.Fatal(err)
		}
		s.Backfill = seed%4 < 2
		ref := newRefSim(s.d, pool, cores, exec)
		ref.backfill = s.Backfill

		var ids []int
		for op := 0; op < 120; op++ {
			var what string
			var got, want *Info
			var gerr, werr error
			switch k := r.Intn(16); {
			case k < 11:
				job := randomJob(r, op, pool, cores)
				res := Result{Duration: time.Duration(r.Intn(150)) * time.Second, Stderr: "stderr of " + job.Name}
				if r.Intn(10) == 0 {
					res.ExitCode = 2
				}
				results[job.Name] = res
				what = fmt.Sprintf("submit %s (%d tasks x %d cpus)", job.Name, job.NumTasks, job.CPUsPerTask)
				twin := *job
				var gid, wid int
				gid, gerr = s.Submit(job)
				wid, werr = ref.Submit(&twin)
				if (gerr == nil) != (werr == nil) || gid != wid {
					t.Fatalf("seed %d: %s: got (%d, %v), reference (%d, %v)", seed, what, gid, gerr, wid, werr)
				}
				if gerr == nil {
					ids = append(ids, gid)
				}
			case k < 15 && len(ids) > 0:
				id := ids[r.Intn(len(ids))]
				what = fmt.Sprintf("wait %d", id)
				got, gerr = s.Wait(id)
				want, werr = ref.Wait(id)
			default:
				what = "drain"
				gerr, werr = s.Drain(), ref.Drain()
			}
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("seed %d: %s: error %v, reference %v", seed, what, gerr, werr)
			}
			if got != nil && !sameInfo(got, want) {
				t.Fatalf("seed %d: %s returned\n%+v\nreference\n%+v", seed, what, got, want)
			}
			compareSims(t, fmt.Sprintf("seed %d (%s pool %d backfill %v): after %s", seed, dialectName, pool, s.Backfill, what), s, ref, ids)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := ref.Drain(); err != nil {
			t.Fatal(err)
		}
		compareSims(t, fmt.Sprintf("seed %d: after the final drain", seed), s, ref, ids)
		if s.FreeNodes() != pool || len(s.free) != 1 {
			t.Fatalf("seed %d: drained pool is %v, want one range of %d", seed, s.free, pool)
		}
	}
}

// randomJob draws a job of one node up to the whole pool (now and then
// a little more, or with more cpus per task than a node has, which both
// simulators must reject alike).
func randomJob(r *rand.Rand, n, pool, cores int) *Job {
	nodes := 1 + r.Intn(min(pool, 4))
	switch r.Intn(10) {
	case 0:
		nodes = pool
	case 1, 2:
		nodes = 1 + r.Intn(pool)
	case 3:
		nodes = pool + 1
	}
	tpn := 1 + r.Intn(2)
	cpus := 1 + r.Intn(cores/tpn)
	if r.Intn(25) == 0 {
		cpus = cores + 1
	}
	limit := time.Duration(0) // the scheduler default
	if r.Intn(3) > 0 {
		limit = time.Duration(1+r.Intn(120)) * time.Second
	}
	return &Job{
		Name:         fmt.Sprintf("job-%03d", n),
		NumTasks:     nodes*tpn - r.Intn(tpn),
		TasksPerNode: tpn,
		CPUsPerTask:  cpus,
		TimeLimit:    limit,
	}
}

// compareSims checks every job, the free count, the clock and the range
// pool's invariants.
func compareSims(t *testing.T, where string, s *Sim, ref *refSim, ids []int) {
	t.Helper()
	for _, id := range ids {
		got, err := s.Poll(id)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		want, _ := ref.Poll(id)
		if !sameInfo(got, want) {
			t.Fatalf("%s: job %d is\n%+v\nreference\n%+v", where, id, got, want)
		}
	}
	if s.FreeNodes() != len(ref.free) || s.Clock() != ref.clock {
		t.Fatalf("%s: %d free at t=%g, reference %d at t=%g", where, s.FreeNodes(), s.Clock(), len(ref.free), ref.clock)
	}
	sum, prev := 0, -1
	for _, r := range s.free {
		if r.lo <= prev || r.hi <= r.lo {
			t.Fatalf("%s: free ranges %v are not sorted, disjoint and merged", where, s.free)
		}
		sum += r.hi - r.lo
		prev = r.hi
	}
	if sum != s.nfree {
		t.Fatalf("%s: free ranges %v hold %d nodes, count says %d", where, s.free, sum, s.nfree)
	}
}

// sameInfo compares everything a caller can observe of a job but the
// *Job pointer, which differs between the twins by construction.
func sameInfo(a, b *Info) bool {
	x, y := *a, *b
	x.Job, y.Job = nil, nil
	return reflect.DeepEqual(x, y) && a.Job.Name == b.Job.Name
}

// FreeNodes reports how many nodes are currently unallocated.
func (s *Sim) FreeNodes() int { return s.nfree }

// Clock reports the current virtual time in seconds.
func (s *Sim) Clock() float64 { return s.clock }

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
