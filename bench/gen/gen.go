// Package gen makes every input benchload feeds to benchd — the seeded
// perflog corpus and the request sequences — from a seed alone: the
// same seed gives byte-identical inputs, and a different seed changes
// values and keys but never how much work an input costs, so runs with
// different seeds stay comparable.
package gen

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	"repro/internal/fom"
	"repro/internal/perflog"
)

// The corpus spans five simulated systems and the suite's three
// benchmarks: 15 perflog files. Runs are submitted only to the four
// single-partition systems (a bare system name resolves there).
var (
	Systems    = []string{"archer2", "cosma8", "csd3", "noctua2", "isambard-macs"}
	partitions = []string{"compute", "compute", "cascadelake", "milan", "cascadelake"}
	Benchmarks = []string{"babelstream-omp", "hpcg-original", "hpgmg-fv"}
)

const submitSystems = 4

// FOM is the figure of merit every corpus entry carries and hpgmg-fv
// runs produce, so one query vocabulary serves seeded and live entries.
const FOM = "l0"

// Start is the corpus epoch; entry i is stamped Start + i seconds, so
// every seeded entry is older than any run the benchmark submits.
var Start = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// Corpus is the seeded store content in column form: small enough to
// keep for the whole run as the model the daemon's answers are checked
// against.
type Corpus struct {
	N      int
	rotate int
	L0     []float64
	l1     []float64 // 0 = absent
	tasks  []uint8   // num_tasks = 8 << tasks
}

// NewCorpus draws n entries from seed.
func NewCorpus(seed int64, n int) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{
		N:      n,
		rotate: rng.Intn(len(Systems) * len(Benchmarks)),
		L0:     make([]float64, n),
		l1:     make([]float64, n),
		tasks:  make([]uint8, n),
	}
	for i := 0; i < n; i++ {
		c.L0[i] = 50 + rng.Float64()*100
		if rng.Intn(2) == 0 {
			c.l1[i] = 40 + rng.Float64()*80
		}
		c.tasks[i] = uint8(rng.Intn(3))
	}
	return c
}

// file is the perflog file entry i lands in. Entries go round the 15
// files in turn (the seed only picks where the round starts), so every
// file holds the same share of every time range at every seed.
func (c *Corpus) file(i int) (system, benchmark int) {
	f := (i + c.rotate) % (len(Systems) * len(Benchmarks))
	return f / len(Benchmarks), f % len(Benchmarks)
}

// System names the system of entry i.
func (c *Corpus) System(i int) string {
	s, _ := c.file(i)
	return Systems[s]
}

// Entry materializes entry i.
func (c *Corpus) Entry(i int) *perflog.Entry {
	s, b := c.file(i)
	e := &perflog.Entry{
		Time:      Start.Add(time.Duration(i) * time.Second),
		Benchmark: Benchmarks[b],
		System:    Systems[s],
		Partition: partitions[s],
		Environ:   "gcc",
		Spec:      Benchmarks[b] + "%gcc",
		JobID:     i,
		Result:    "pass",
		FOMs:      map[string]fom.Value{FOM: {Name: FOM, Value: c.L0[i], Unit: "MDOF/s"}},
		Extra:     map[string]string{"num_tasks": strconv.Itoa(8 << c.tasks[i])},
	}
	if c.l1[i] != 0 {
		e.FOMs["l1"] = fom.Value{Name: "l1", Value: c.l1[i], Unit: "MDOF/s"}
	}
	return e
}

// Write appends entries [lo, hi) to the perflog tree under root through
// the program's own writer, one durable append per file.
func (c *Corpus) Write(root string, lo, hi int) error {
	files := make([][]*perflog.Entry, len(Systems)*len(Benchmarks))
	for i := lo; i < hi; i++ {
		s, b := c.file(i)
		f := s*len(Benchmarks) + b
		files[f] = append(files[f], c.Entry(i))
	}
	for f, entries := range files {
		if len(entries) == 0 {
			continue
		}
		if err := perflog.Append(root, Systems[f/len(Benchmarks)], Benchmarks[f%len(Benchmarks)], entries...); err != nil {
			return err
		}
	}
	return nil
}

// Kind classes an operation; latency is reported per class.
type Kind uint8

const (
	Submit Kind = iota
	Select
	Aggregate
	Regress
	kinds
)

// Kinds lists the classes in reporting order.
var Kinds = []Kind{Submit, Select, Aggregate, Regress}

func (k Kind) String() string {
	return [...]string{"submit", "select", "aggregate", "regress"}[k]
}

// Op is one request. Submit ops POST Body to Path and complete when the
// run's run.finished event arrives; the others are GETs.
type Op struct {
	Kind Kind
	Path string
	Body string
	// System and Benchmark name a Submit's target.
	System, Benchmark string
	// Since is the first corpus index an Aggregate's window admits.
	Since int
}

// Sequence builds the request sequences of one run. Unique cache keys
// are numbered from one counter so no two ops of a run share a key.
type Sequence struct {
	c       *Corpus
	rng     *rand.Rand
	targets [][2]string
	nextKey int64
	nextRun int
}

// NewSequence seeds a sequence builder over the corpus (which may be
// empty: windows then admit only live entries).
func NewSequence(seed int64, c *Corpus) *Sequence {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	s := &Sequence{c: c, rng: rng}
	for sys := 0; sys < submitSystems; sys++ {
		for _, b := range Benchmarks {
			s.targets = append(s.targets, [2]string{Systems[sys], b})
		}
	}
	rng.Shuffle(len(s.targets), func(i, j int) { s.targets[i], s.targets[j] = s.targets[j], s.targets[i] })
	return s
}

// quantiles are the window starts dashboards ask for: everything, the
// newer half, the newest tenth.
var quantiles = []float64{0, 0.5, 0.9}

// since renders the window start admitting corpus indexes >= idx. A
// unique window sits a unique sub-second fraction before the boundary
// entry: it admits exactly the same entries as the cacheable form, so
// every uncached query of one quantile costs the same, but its text —
// the daemon's cache key — never repeats.
func (s *Sequence) since(idx int, unique bool) string {
	t := Start.Add(time.Duration(idx) * time.Second)
	if unique {
		s.nextKey++
		t = t.Add(-time.Second + time.Duration(s.nextKey*1000+int64(s.rng.Intn(1000)))*time.Nanosecond)
	}
	return t.Format(time.RFC3339Nano)
}

func (s *Sequence) submit() Op {
	t := s.targets[s.nextRun%len(s.targets)]
	s.nextRun++
	return Op{
		Kind: Submit, Path: "/v1/runs", System: t[0], Benchmark: t[1],
		Body: fmt.Sprintf(`{"benchmark":%q,"system":%q}`, t[1], t[0]),
	}
}

// SelectPath is the fixed select every workload issues: the newest 100
// entries, the listing a results page opens with.
const SelectPath = "/v1/query?limit=100"

func (s *Sequence) selectOp() Op { return Op{Kind: Select, Path: SelectPath} }

// aggregate is the dashboard query: the mean FOM per system over one of
// the three windows, taken in turn.
func (s *Sequence) aggregate(turn int, unique bool) Op {
	idx := int(quantiles[turn%len(quantiles)] * float64(s.c.N))
	v := url.Values{"agg": {"mean"}, "fom": {FOM}, "group_by": {"system"}, "since": {s.since(idx, unique)}}
	return Op{Kind: Aggregate, Path: "/v1/query?" + v.Encode(), Since: idx}
}

// AggregatePath is the cacheable dashboard query over the whole store;
// boots are timed to its first answer.
func AggregatePath() string {
	return "/v1/query?" + url.Values{"agg": {"mean"}, "fom": {FOM}, "group_by": {"system"}}.Encode()
}

// regress evaluates the sliding baseline over the newest tenth.
func (s *Sequence) regress(unique bool) Op {
	idx := int(0.9 * float64(s.c.N))
	v := url.Values{"fom": {FOM}, "since": {s.since(idx, unique)}}
	return Op{Kind: Regress, Path: "/v1/regressions?" + v.Encode()}
}

// Runs is n submits going round the twelve targets.
func (s *Sequence) Runs(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = s.submit()
	}
	return ops
}

// Queries interleaves the three query classes evenly: at every step the
// class furthest behind its share goes next, so any prefix of the
// sequence has the mix of the whole. All keys are unique — every
// aggregate and regression misses the daemon's cache.
func (s *Sequence) Queries(selects, aggregates, regressions int) []Op {
	want := [kinds]int{Select: selects, Aggregate: aggregates, Regress: regressions}
	var done [kinds]int
	total := selects + aggregates + regressions
	ops := make([]Op, 0, total)
	for step := 1; step <= total; step++ {
		best, bestLag := Select, -1.0
		for _, k := range []Kind{Select, Aggregate, Regress} {
			if lag := float64(want[k])*float64(step)/float64(total) - float64(done[k]); lag > bestLag {
				best, bestLag = k, lag
			}
		}
		switch best {
		case Select:
			ops = append(ops, s.selectOp())
		case Aggregate:
			ops = append(ops, s.aggregate(done[Aggregate], true))
		case Regress:
			ops = append(ops, s.regress(true))
		}
		done[best]++
	}
	return ops
}

// Cycles is the mixed workload: each cycle lands one run, then reads
// the dashboard (the three cacheable windows — cacheable, yet all
// misses, because the run's commit moved the store generation), then
// the listing; every third cycle also asks for regressions.
func (s *Sequence) Cycles(n int) []Op {
	var ops []Op
	for c := 0; c < n; c++ {
		ops = append(ops, s.submit())
		for turn := range quantiles {
			ops = append(ops, s.aggregate(turn, false))
		}
		ops = append(ops, s.selectOp())
		if c%3 == 2 {
			ops = append(ops, s.regress(false))
		}
	}
	return ops
}

// Model holds the generator's own answer to the dashboard query: the
// corpus columns plus the FOMs of every run acknowledged since.
type Model struct {
	c       *Corpus
	liveSum map[string]float64
	liveN   map[string]int
}

// NewModel starts from the seeded corpus with no live runs.
func NewModel(c *Corpus) *Model {
	return &Model{c: c, liveSum: map[string]float64{}, liveN: map[string]int{}}
}

// AddLive records the FOM of an acknowledged run; live runs are newer
// than every window start.
func (m *Model) AddLive(system string, value float64) {
	m.liveSum[system] += value
	m.liveN[system]++
}

// Mean is the expected mean FOM and entry count per system over corpus
// indexes >= since plus all live runs.
func (m *Model) Mean(since int) (mean map[string]float64, count map[string]int) {
	sum := map[string]float64{}
	count = map[string]int{}
	for sys, n := range m.liveN {
		sum[sys], count[sys] = m.liveSum[sys], n
	}
	for i := since; i < m.c.N; i++ {
		sys := m.c.System(i)
		sum[sys] += m.c.L0[i]
		count[sys]++
	}
	mean = map[string]float64{}
	for sys, n := range count {
		mean[sys] = sum[sys] / float64(n)
	}
	return mean, count
}
