// Package suite defines the framework's benchmark library: the three
// applications of the paper's case studies (BabelStream §3.1, HPCG §3.2,
// HPGMG-FV §3.3) wrapped as core.Benchmark implementations.
//
// Each benchmark executes for real when targeted at the "local" system
// and through the machine model when targeted at one of the simulated
// UK systems — the same definition, two substrates, which is precisely
// the separation of benchmark from system the methodology prescribes.
package suite

import (
	"fmt"
	"regexp"
	"strings"
	"time"

	"repro/internal/apps/babelstream"
	"repro/internal/apps/hpcg"
	"repro/internal/apps/hpgmg"
	"repro/internal/core"
	"repro/internal/fom"
	"repro/internal/launcher"
	"repro/internal/machine"
	"repro/internal/spec"
)

// ByName returns a benchmark by its registry name.
func ByName(name string) (core.Benchmark, error) {
	for _, b := range All() {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("suite: unknown benchmark %q (have %v)", name, Names())
}

// All lists the suite's benchmarks with default settings.
func All() []core.Benchmark {
	return []core.Benchmark{
		NewBabelStream("omp"),
		NewHPCG("original"),
		NewHPGMG(),
	}
}

// Names lists the registry names.
func Names() []string {
	var out []string
	for _, b := range All() {
		out = append(out, b.Name())
	}
	return out
}

// NormalizeModelSpec rewrites the paper's "+omp"-style BabelStream model
// toggles into the recipe's model= variant, so command lines like
// "babelstream%gcc@9.2.0 +omp" work verbatim.
func NormalizeModelSpec(text string) (string, error) {
	s, err := spec.Parse(text)
	if err != nil {
		return "", err
	}
	if s.Name != "babelstream" {
		return text, nil
	}
	models := map[string]bool{
		"omp": true, "kokkos": true, "cuda": true, "ocl": true, "tbb": true,
		"std-data": true, "std-indices": true, "std-ranges": true, "sycl": true,
	}
	for name, v := range s.Variants {
		if !models[name] || !v.IsBool {
			continue
		}
		if v.Bool {
			if prev, ok := s.Variants["model"]; ok && prev.Str != name {
				return "", fmt.Errorf("suite: spec selects two models (+%s and model=%s)", name, prev.Str)
			}
			s.SetVariant("model", spec.StrVariant(name))
		}
		delete(s.Variants, name)
	}
	return s.String(), nil
}

// --- BabelStream ------------------------------------------------------------

// BabelStream is the §3.1 benchmark definition.
type BabelStream struct {
	Model string
	// ArraySize overrides the automatic cache-defeating size (elements).
	ArraySize int
	// NumTimes is the repetition count.
	NumTimes int
}

// NewBabelStream returns the benchmark configured for one programming
// model.
func NewBabelStream(model string) *BabelStream {
	return &BabelStream{Model: model, NumTimes: 100}
}

// Name implements core.Benchmark.
func (b *BabelStream) Name() string { return "babelstream-" + b.Model }

// BuildSpec implements core.Benchmark.
func (b *BabelStream) BuildSpec() string {
	return fmt.Sprintf("babelstream model=%s", b.Model)
}

// DefaultLayout implements core.Benchmark: one process using the whole
// node (BabelStream is a single-process benchmark).
func (b *BabelStream) DefaultLayout() launcher.Layout {
	return launcher.Layout{NumTasks: 1, TasksPerNode: 1}
}

// Args implements core.Benchmark.
func (b *BabelStream) Args() []string {
	if b.ArraySize > 0 {
		return []string{"-s", fmt.Sprint(b.ArraySize)}
	}
	return nil
}

// Execute implements core.Benchmark.
func (b *BabelStream) Execute(ctx *core.RunContext) (string, time.Duration, error) {
	model := b.Model
	if v, ok := ctx.Spec.Variants["model"]; ok && v.Str != "" {
		model = v.Str
	}
	size := b.ArraySize
	if size == 0 {
		size = babelstream.DefaultArraySize(ctx.Partition.Processor.L3CacheTotalMB())
	}
	if ctx.Local {
		// Real host execution; clamp the array so local smoke runs
		// stay quick while still beating the LLC.
		if size > 1<<26 {
			size = 1 << 26
		}
		cfg := babelstream.Config{ArraySize: size, NumTimes: min(b.NumTimes, 20)}
		start := time.Now()
		res, err := babelstream.Run(cfg)
		if err != nil {
			return "", 0, err
		}
		return res.Output, time.Since(start), nil
	}
	cfg := babelstream.Config{ArraySize: size, NumTimes: b.NumTimes}
	res, err := babelstream.Simulate(ctx.Partition.Processor, machine.ProgModel(model), cfg, ctx.SystemFactor)
	if err != nil {
		return "", 0, err
	}
	// The simulated job occupies the node for roughly NumTimes kernel
	// sweeps.
	perSweep := 5 * 24 * float64(size) / (res.TriadGBs() * 1e9)
	return res.Output, time.Duration(perSweep * float64(cfg.NumTimes) * float64(time.Second)), nil
}

// The benchmarks' sanity and FOM patterns are compiled once, at package
// init, and shared by every run: callers treat them as read-only.
var (
	babelStreamSanity = fom.Sanity{
		Require: []*regexp.Regexp{regexp.MustCompile(`Validation passed`)},
		Forbid:  []*regexp.Regexp{regexp.MustCompile(`Validation failed`)},
	}
	babelStreamPatterns = func() []fom.Pattern {
		var out []fom.Pattern
		for _, k := range babelstream.KernelNames() {
			out = append(out, fom.MustPattern(strings.ToLower(k)+"_mbps", "MB/s", k+`\s+([0-9.]+)`))
		}
		return out
	}()

	hpcgSanity = fom.Sanity{
		Require: []*regexp.Regexp{regexp.MustCompile(`Results are valid`)},
		Forbid:  []*regexp.Regexp{regexp.MustCompile(`INVALID`)},
	}
	hpcgPatterns = []fom.Pattern{fom.MustPattern("gflops", "GF/s", `GFLOP/s rating of:\s+([0-9.]+)`)}

	hpgmgSanity   = fom.Sanity{Require: []*regexp.Regexp{regexp.MustCompile(`average solve rate l0`)}}
	hpgmgPatterns = func() []fom.Pattern {
		var out []fom.Pattern
		for _, lvl := range []string{"l0", "l1", "l2"} {
			p := fom.MustPattern(lvl, "MDOF/s", `average solve rate `+lvl+`: ([0-9.e+-]+) DOF/s`)
			p.Scale = 1e-6
			out = append(out, p)
		}
		return out
	}()
)

// Sanity implements core.Benchmark.
func (b *BabelStream) Sanity() fom.Sanity { return babelStreamSanity }

// PerfPatterns implements core.Benchmark.
func (b *BabelStream) PerfPatterns() []fom.Pattern { return babelStreamPatterns }

// --- HPCG --------------------------------------------------------------------

// HPCG is the §3.2 benchmark definition.
type HPCG struct {
	Variant string
	// Grid is the local problem size for host runs.
	Grid hpcg.Grid
}

// NewHPCG returns the benchmark for one algorithm variant.
func NewHPCG(variant string) *HPCG {
	return &HPCG{Variant: variant, Grid: hpcg.Grid{NX: 32, NY: 32, NZ: 32}}
}

// Name implements core.Benchmark.
func (b *HPCG) Name() string { return "hpcg-" + b.Variant }

// BuildSpec implements core.Benchmark.
func (b *HPCG) BuildSpec() string {
	s := fmt.Sprintf("hpcg variant=%s", b.Variant)
	if b.Variant == "intel-avx2" {
		s += " %oneapi" // vendor binaries need the Intel toolchain
	}
	return s
}

// DefaultLayout implements core.Benchmark: MPI-only, one rank per core
// on a single node (the Table 2 configuration).
func (b *HPCG) DefaultLayout() launcher.Layout {
	return launcher.Layout{NumTasks: 0, TasksPerNode: 0, CPUsPerTask: 1}
}

// Args implements core.Benchmark.
func (b *HPCG) Args() []string {
	return []string{fmt.Sprint(b.Grid.NX), fmt.Sprint(b.Grid.NY), fmt.Sprint(b.Grid.NZ)}
}

// Execute implements core.Benchmark.
func (b *HPCG) Execute(ctx *core.RunContext) (string, time.Duration, error) {
	variant := b.Variant
	if v, ok := ctx.Spec.Variants["variant"]; ok && v.Str != "" {
		variant = v.Str
	}
	if ctx.Local {
		// Multi-task local runs of the matrix-free variant execute the
		// genuinely distributed solver: goroutine ranks, channel halo
		// exchange, barrier allreduce.
		if variant == "matrix-free" && ctx.Layout.NumTasks > 1 && ctx.Layout.NumTasks <= b.Grid.NZ/2 {
			start := time.Now()
			res, err := hpcg.RunDistributed(b.Grid, ctx.Layout.NumTasks, 50, 1e-9)
			if err != nil {
				return "", 0, err
			}
			valid := "Results are valid."
			if !res.Converged && res.MaxErr > 0.5 {
				valid = "Results are INVALID."
			}
			out := fmt.Sprintf("HPCG-Benchmark variant=%s ranks=%d\nIterations=%d\nScaled Residual=%.6e\n%s\nGFLOP/s rating of: %.4f\n",
				variant, res.Ranks, res.Iterations, res.Residual, valid, res.GFlops)
			return out, time.Since(start), nil
		}
		start := time.Now()
		res, err := hpcg.Run(hpcg.Config{Variant: variant, Grid: b.Grid})
		if err != nil {
			return "", 0, err
		}
		return res.Output, time.Since(start), nil
	}
	ranks := ctx.Layout.NumTasks
	if ranks == 0 {
		ranks = ctx.Partition.Processor.TotalCores()
	}
	sim, err := hpcg.Simulate(hpcg.SimConfig{
		Variant:      variant,
		Proc:         ctx.Partition.Processor,
		Ranks:        ranks,
		SystemFactor: ctx.SystemFactor,
	})
	if err != nil {
		return "", 0, err
	}
	if !sim.Supported {
		return "", 0, fmt.Errorf("hpcg %s: %s", variant, sim.Reason)
	}
	out := fmt.Sprintf("HPCG-Benchmark variant=%s\nIterations=50\nScaled Residual=1.0e-09\nResults are valid.\nGFLOP/s rating of: %.4f\n", variant, sim.GFlops)
	// Rough runtime for the scheduler's accounting: HPCG runs a fixed
	// iteration budget.
	return out, 90 * time.Second, nil
}

// Sanity implements core.Benchmark.
func (b *HPCG) Sanity() fom.Sanity { return hpcgSanity }

// PerfPatterns implements core.Benchmark.
func (b *HPCG) PerfPatterns() []fom.Pattern { return hpcgPatterns }

// --- HPGMG-FV -----------------------------------------------------------------

// HPGMG is the §3.3 benchmark definition.
type HPGMG struct {
	// Log2BoxDim and BoxesPerRank mirror the "7 8" command line.
	Log2BoxDim   int
	BoxesPerRank int
	// HostLog2Dim is the grid exponent for real host runs (kept modest).
	HostLog2Dim int
}

// NewHPGMG returns the benchmark with the paper's parameters.
func NewHPGMG() *HPGMG {
	return &HPGMG{Log2BoxDim: 7, BoxesPerRank: 8, HostLog2Dim: 5}
}

// Name implements core.Benchmark.
func (b *HPGMG) Name() string { return "hpgmg-fv" }

// BuildSpec implements core.Benchmark.
func (b *HPGMG) BuildSpec() string { return "hpgmg%gcc" }

// DefaultLayout implements core.Benchmark: the paper's fixed layout.
func (b *HPGMG) DefaultLayout() launcher.Layout {
	return launcher.Layout{NumTasks: 8, TasksPerNode: 2, CPUsPerTask: 8}
}

// Args implements core.Benchmark.
func (b *HPGMG) Args() []string {
	return []string{fmt.Sprint(b.Log2BoxDim), fmt.Sprint(b.BoxesPerRank)}
}

// Execute implements core.Benchmark.
func (b *HPGMG) Execute(ctx *core.RunContext) (string, time.Duration, error) {
	if ctx.Local {
		// Multi-task local runs use the genuinely distributed solver
		// (goroutine ranks, channel halos, agglomerated coarse grids).
		if ranks := ctx.Layout.NumTasks; ranks > 1 {
			start := time.Now()
			var sb strings.Builder
			sb.WriteString("HPGMG-FV (distributed host run)\n")
			for i, label := range []string{"l0", "l1", "l2"} {
				k := b.HostLog2Dim - i
				if k < 2 {
					break
				}
				r := ranks
				if max := ((1 << k) - 1) / 2; r > max {
					r = max // coarse replays may not fit all ranks
				}
				res, err := hpgmg.RunDistributed(k, r, 30, 1e-8)
				if err != nil {
					return "", 0, err
				}
				fmt.Fprintf(&sb, "average solve rate %s: %.6e DOF/s\n", label, res.MDOFs*1e6)
			}
			return sb.String(), time.Since(start), nil
		}
		start := time.Now()
		res, err := hpgmg.Run(hpgmg.Config{Log2Dim: b.HostLog2Dim})
		if err != nil {
			return "", 0, err
		}
		return res.Output, time.Since(start), nil
	}
	layout := ctx.Layout
	tpn := layout.TasksPerNode
	if tpn == 0 {
		tpn = 2
	}
	nodes := (layout.NumTasks + tpn - 1) / tpn
	levels, err := hpgmg.Simulate(hpgmg.SimConfig{
		System:       ctx.System.Name,
		Proc:         ctx.Partition.Processor,
		Nodes:        nodes,
		TasksPerNode: tpn,
		CPUsPerTask:  layout.CPUsPerTask,
		Log2BoxDim:   b.Log2BoxDim,
		BoxesPerRank: b.BoxesPerRank,
	})
	if err != nil {
		return "", 0, err
	}
	var sb strings.Builder
	sb.WriteString("HPGMG-FV (simulated)\n")
	total := 0.0
	for _, l := range levels {
		fmt.Fprintf(&sb, "average solve rate %s: %.6e DOF/s\n", l.Label, l.MDOFs*1e6)
		total += l.Seconds
	}
	return sb.String(), time.Duration(total * float64(time.Second)), nil
}

// Sanity implements core.Benchmark.
func (b *HPGMG) Sanity() fom.Sanity { return hpgmgSanity }

// PerfPatterns implements core.Benchmark: the three Table 4 FOMs,
// converted to 10^6 DOF/s at extraction.
func (b *HPGMG) PerfPatterns() []fom.Pattern { return hpgmgPatterns }
