// Package platform models the hardware side of a "platform" in the
// paper's sense (Figure 1, after Pennycook et al.): the processors and
// systems benchmarks run on, with the theoretical peak figures needed to
// turn raw Figures of Merit into efficiencies (Principle 1).
//
// The database reproduces Table 1 (peak memory bandwidths used for the
// BabelStream efficiency figure) and Table 5 (the UK HPC systems used in
// the study).
package platform

import (
	"fmt"
	"sort"
)

// DeviceKind distinguishes the broad device classes of the study.
type DeviceKind int

const (
	CPU DeviceKind = iota
	GPU
)

func (k DeviceKind) String() string {
	if k == GPU {
		return "gpu"
	}
	return "cpu"
}

// Arch is the instruction-set family, used for package conflicts (e.g.
// intel-tbb unsupported on aarch64) and model-support decisions.
type Arch string

const (
	X86_64  Arch = "x86_64"
	AArch64 Arch = "aarch64"
	PTX     Arch = "ptx" // NVIDIA GPU
)

// Processor describes one processor model with its theoretical peaks.
// Peak figures are per full node (all sockets) to match how the paper
// normalises BabelStream results in Figure 2.
type Processor struct {
	Vendor    string
	Name      string // marketing name, e.g. "Xeon Gold 6230"
	Microarch string // e.g. "cascadelake", "rome", "milan", "thunderx2", "volta"
	Kind      DeviceKind
	Arch      Arch

	Sockets        int
	CoresPerSocket int // or compute units for GPUs (Sockets==1)
	ClockGHz       float64

	L3CachePerSocketMB float64
	MemoryGB           float64
	NUMADomains        int

	// PeakBandwidthGBs is the node-level theoretical peak memory
	// bandwidth (Table 1's "Peak Memory Bandwidth").
	PeakBandwidthGBs float64
	// PeakGFlopsFP64 is the node-level theoretical peak double-precision
	// rate, for flop-bound efficiency calculations.
	PeakGFlopsFP64 float64
	// TDPWatts is the node-level thermal design power (all sockets),
	// used for the energy estimates the paper lists as future work.
	TDPWatts float64
}

// EnergyEstimateJ estimates the energy one node consumes over the given
// wall-clock seconds, assuming the benchmark drives the package at TDP —
// the simple bound the framework records with each run.
func (p *Processor) EnergyEstimateJ(seconds float64) float64 {
	return p.TDPWatts * seconds
}

// TotalCores returns the core (or CU) count across sockets.
func (p *Processor) TotalCores() int { return p.Sockets * p.CoresPerSocket }

// L3CacheTotalMB returns the whole-node last-level cache size, used to
// pick BabelStream array sizes that defeat caching (paper §3.1).
func (p *Processor) L3CacheTotalMB() float64 {
	return float64(p.Sockets) * p.L3CachePerSocketMB
}

// String renders "Vendor Name (microarch)".
func (p *Processor) String() string {
	return fmt.Sprintf("%s %s (%s)", p.Vendor, p.Name, p.Microarch)
}

// Partition is a homogeneous set of nodes within a system, mirroring the
// ReFrame partition concept.
type Partition struct {
	Name      string
	Processor *Processor
	Nodes     int
	// Scheduler and Launcher name how jobs are started here; values are
	// resolved by internal/scheduler and internal/launcher.
	Scheduler string // "slurm", "pbs", "local"
	Launcher  string // "srun", "mpirun", "aprun", "local"
	// Environs names the programming environments usable on the
	// partition (matched against env configs).
	Environs []string
}

// Device returns the partition's device kind.
func (p *Partition) Device() DeviceKind { return p.Processor.Kind }

// System is one HPC machine with one or more partitions.
type System struct {
	Name       string
	Site       string
	Aliases    []string // alternative names used in the paper (e.g. paderborn-milan)
	Partitions []Partition
}

// Partition returns the named partition; with name "" and exactly one
// partition, that partition is returned.
func (s *System) Partition(name string) (*Partition, error) {
	if name == "" {
		if len(s.Partitions) == 1 {
			return &s.Partitions[0], nil
		}
		return nil, fmt.Errorf("platform: system %s has %d partitions; one must be named", s.Name, len(s.Partitions))
	}
	for i := range s.Partitions {
		if s.Partitions[i].Name == name {
			return &s.Partitions[i], nil
		}
	}
	return nil, fmt.Errorf("platform: system %s has no partition %q", s.Name, name)
}

// Estate is the collection of systems the framework knows, the "stable of
// supercomputing resources" of the abstract.
type Estate struct {
	systems map[string]*System
	aliases map[string]string
}

// NewEstate returns an empty estate.
func NewEstate() *Estate {
	return &Estate{systems: map[string]*System{}, aliases: map[string]string{}}
}

// Add registers a system and its aliases.
func (e *Estate) Add(s *System) error {
	if s.Name == "" {
		return fmt.Errorf("platform: system with empty name")
	}
	if _, dup := e.systems[s.Name]; dup {
		return fmt.Errorf("platform: duplicate system %q", s.Name)
	}
	if len(s.Partitions) == 0 {
		return fmt.Errorf("platform: system %q has no partitions", s.Name)
	}
	seen := map[string]bool{}
	for i := range s.Partitions {
		p := &s.Partitions[i]
		if seen[p.Name] {
			return fmt.Errorf("platform: system %q: duplicate partition %q", s.Name, p.Name)
		}
		seen[p.Name] = true
		if p.Processor == nil {
			return fmt.Errorf("platform: system %q partition %q has no processor", s.Name, p.Name)
		}
		if p.Nodes <= 0 {
			return fmt.Errorf("platform: system %q partition %q has no nodes", s.Name, p.Name)
		}
	}
	e.systems[s.Name] = s
	for _, a := range s.Aliases {
		if _, dup := e.aliases[a]; dup {
			return fmt.Errorf("platform: duplicate alias %q", a)
		}
		e.aliases[a] = s.Name
	}
	return nil
}

// MustAdd is Add for statically known-good systems.
func (e *Estate) MustAdd(s *System) {
	if err := e.Add(s); err != nil {
		panic(err)
	}
}

// System resolves a system by name or alias.
func (e *Estate) System(name string) (*System, error) {
	if s, ok := e.systems[name]; ok {
		return s, nil
	}
	if canonical, ok := e.aliases[name]; ok {
		return e.systems[canonical], nil
	}
	return nil, fmt.Errorf("platform: unknown system %q (known: %v)", name, e.Names())
}

// Resolve splits "system:partition" syntax (as used on the ReFrame
// command line, e.g. isambard-macs:cascadelake) and returns both halves.
// It is the door every run and efficiency column goes through, so it is
// where the host processor is calibrated: the first Resolve of a
// partition on this machine pays the bandwidth measurement, once.
func (e *Estate) Resolve(target string) (*System, *Partition, error) {
	sysName, partName := target, ""
	for i := 0; i < len(target); i++ {
		if target[i] == ':' {
			sysName, partName = target[:i], target[i+1:]
			break
		}
	}
	sys, err := e.System(sysName)
	if err != nil {
		return nil, nil, err
	}
	part, err := sys.Partition(partName)
	if err != nil {
		return nil, nil, err
	}
	if part.Processor == hostProc {
		calibrateHost()
	}
	return sys, part, nil
}

// Names returns all canonical system names, sorted.
func (e *Estate) Names() []string {
	out := make([]string, 0, len(e.systems))
	for n := range e.systems {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
