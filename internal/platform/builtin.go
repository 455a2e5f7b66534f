package platform

// Processor database. Peak memory bandwidths follow Table 1 of the paper;
// processor details follow Table 5. Peak FLOP rates are derived from
// core count × clock × FP64 FMA width (vector lanes × 2 ops × FMA units)
// for each microarchitecture.

// CascadeLake6230 is the Isambard MACS Intel Xeon Gold 6230
// (20 cores/socket, dual socket, 2.1 GHz, AVX-512).
var CascadeLake6230 = &Processor{
	Vendor:             "Intel",
	Name:               "Xeon Gold 6230",
	Microarch:          "cascadelake",
	Kind:               CPU,
	Arch:               X86_64,
	Sockets:            2,
	CoresPerSocket:     20,
	ClockGHz:           2.1,
	L3CachePerSocketMB: 27.5,
	MemoryGB:           192,
	NUMADomains:        2,
	PeakBandwidthGBs:   282, // 2 x 140.784 (Table 1)
	PeakGFlopsFP64:     2 * 20 * 2.1 * 32,
	TDPWatts:           250,
}

// CascadeLake8276 is the CSD3 Intel Xeon Platinum 8276
// (28 cores/socket, dual socket, 2.2 GHz).
var CascadeLake8276 = &Processor{
	Vendor:             "Intel",
	Name:               "Xeon Platinum 8276",
	Microarch:          "cascadelake",
	Kind:               CPU,
	Arch:               X86_64,
	Sockets:            2,
	CoresPerSocket:     28,
	ClockGHz:           2.2,
	L3CachePerSocketMB: 38.5,
	MemoryGB:           384,
	NUMADomains:        2,
	PeakBandwidthGBs:   282, // same six-channel DDR4-2933 memory system
	PeakGFlopsFP64:     2 * 28 * 2.2 * 32,
	TDPWatts:           330,
}

// ThunderX2 is the Isambard Marvell ThunderX2 (32 cores/socket, dual
// socket, 2.5 GHz, 128-bit NEON).
var ThunderX2 = &Processor{
	Vendor:             "Marvell",
	Name:               "ThunderX2",
	Microarch:          "thunderx2",
	Kind:               CPU,
	Arch:               AArch64,
	Sockets:            2,
	CoresPerSocket:     32,
	ClockGHz:           2.5,
	L3CachePerSocketMB: 32,
	MemoryGB:           256,
	NUMADomains:        2,
	PeakBandwidthGBs:   288, // Table 1
	PeakGFlopsFP64:     2 * 32 * 2.5 * 8,
	TDPWatts:           360,
}

// EPYCRome7742 is the ARCHER2 AMD EPYC 7742 (64 cores/socket, dual
// socket, 2.25 GHz, AVX2).
var EPYCRome7742 = &Processor{
	Vendor:             "AMD",
	Name:               "EPYC 7742",
	Microarch:          "rome",
	Kind:               CPU,
	Arch:               X86_64,
	Sockets:            2,
	CoresPerSocket:     64,
	ClockGHz:           2.25,
	L3CachePerSocketMB: 256,
	MemoryGB:           256,
	NUMADomains:        8,
	PeakBandwidthGBs:   409.6, // 2 x 204.8, eight-channel DDR4-3200
	PeakGFlopsFP64:     2 * 64 * 2.25 * 16,
	TDPWatts:           450,
}

// EPYCRome7H12 is the COSMA8 AMD EPYC 7H12 (64 cores/socket, dual
// socket, 2.6 GHz).
var EPYCRome7H12 = &Processor{
	Vendor:             "AMD",
	Name:               "EPYC 7H12",
	Microarch:          "rome",
	Kind:               CPU,
	Arch:               X86_64,
	Sockets:            2,
	CoresPerSocket:     64,
	ClockGHz:           2.6,
	L3CachePerSocketMB: 256,
	MemoryGB:           1024,
	NUMADomains:        8,
	PeakBandwidthGBs:   409.6,
	PeakGFlopsFP64:     2 * 64 * 2.6 * 16,
	TDPWatts:           560,
}

// EPYCMilan7763 is the Noctua2 (Paderborn) AMD EPYC 7763 (64
// cores/socket, dual socket, 2.45 GHz). The paper's §3.1 notes its 256 MB
// per-socket L3, which forces the 2^29 BabelStream array size.
var EPYCMilan7763 = &Processor{
	Vendor:             "AMD",
	Name:               "EPYC 7763",
	Microarch:          "milan",
	Kind:               CPU,
	Arch:               X86_64,
	Sockets:            2,
	CoresPerSocket:     64,
	ClockGHz:           2.45,
	L3CachePerSocketMB: 256,
	MemoryGB:           512,
	NUMADomains:        8,
	PeakBandwidthGBs:   409.6, // 2 x 204.8 (Table 1 "Milan")
	PeakGFlopsFP64:     2 * 64 * 2.45 * 16,
	TDPWatts:           560,
}

// TeslaV100 is the Isambard MACS NVIDIA Tesla V100 PCIe 16 GB (80 SMs).
var TeslaV100 = &Processor{
	Vendor:             "NVIDIA",
	Name:               "Tesla V100 PCIe 16GB",
	Microarch:          "volta",
	Kind:               GPU,
	Arch:               PTX,
	Sockets:            1,
	CoresPerSocket:     80, // streaming multiprocessors (Table 1 "Compute Units")
	ClockGHz:           1.38,
	L3CachePerSocketMB: 6,
	MemoryGB:           16,
	NUMADomains:        1,
	PeakBandwidthGBs:   900, // Table 1
	PeakGFlopsFP64:     7000,
	TDPWatts:           250,
}

// Table1Processors lists the four processors of the paper's Table 1 in
// row order: Cascade Lake, ThunderX2, Milan, V100.
func Table1Processors() []*Processor {
	return []*Processor{CascadeLake6230, ThunderX2, EPYCMilan7763, TeslaV100}
}

// UKEstate returns the systems of the study (Table 5) plus a "local"
// pseudo-system for host execution. Partition scheduler/launcher choices
// follow the real machines: ARCHER2 and CSD3 and Noctua2 run SLURM,
// Isambard runs PBS, COSMA8 runs SLURM.
func UKEstate() *Estate {
	e := NewEstate()
	e.MustAdd(&System{
		Name:    "isambard-xci",
		Site:    "GW4 Isambard",
		Aliases: []string{"isambard"},
		Partitions: []Partition{{
			Name:      "compute",
			Processor: ThunderX2,
			Nodes:     329,
			Scheduler: "pbs",
			Launcher:  "aprun",
			Environs:  []string{"gcc", "cce"},
		}},
	})
	e.MustAdd(&System{
		Name: "isambard-macs",
		Site: "GW4 Isambard Multi-Architecture Comparison System",
		Partitions: []Partition{
			{
				Name:      "cascadelake",
				Processor: CascadeLake6230,
				Nodes:     4,
				Scheduler: "pbs",
				Launcher:  "mpirun",
				Environs:  []string{"gcc", "oneapi"},
			},
			{
				Name:      "volta",
				Processor: TeslaV100,
				Nodes:     2,
				Scheduler: "pbs",
				Launcher:  "mpirun",
				Environs:  []string{"gcc", "cuda"},
			},
		},
	})
	e.MustAdd(&System{
		Name: "archer2",
		Site: "EPCC",
		Partitions: []Partition{{
			Name:      "compute",
			Processor: EPYCRome7742,
			Nodes:     5860,
			Scheduler: "slurm",
			Launcher:  "srun",
			Environs:  []string{"gcc", "cce"},
		}},
	})
	e.MustAdd(&System{
		Name: "cosma8",
		Site: "DiRAC Durham",
		Partitions: []Partition{{
			Name:      "compute",
			Processor: EPYCRome7H12,
			Nodes:     360,
			Scheduler: "slurm",
			Launcher:  "mpirun",
			Environs:  []string{"gcc", "oneapi"},
		}},
	})
	e.MustAdd(&System{
		Name: "csd3",
		Site: "Cambridge",
		Partitions: []Partition{{
			Name:      "cascadelake",
			Processor: CascadeLake8276,
			Nodes:     672,
			Scheduler: "slurm",
			Launcher:  "srun",
			Environs:  []string{"gcc", "oneapi"},
		}},
	})
	e.MustAdd(&System{
		Name:    "noctua2",
		Site:    "NHR Paderborn PC2",
		Aliases: []string{"paderborn-milan"},
		Partitions: []Partition{{
			Name:      "milan",
			Processor: EPYCMilan7763,
			Nodes:     990,
			Scheduler: "slurm",
			Launcher:  "srun",
			Environs:  []string{"gcc", "oneapi"},
		}},
	})
	e.MustAdd(LocalSystem())
	return e
}

// LocalSystem describes the host this process runs on as a
// single-partition system with the "local" scheduler and launcher, used
// for real (non-simulated) benchmark execution. The description is
// static; the processor's measured PeakBandwidthGBs is filled in when
// Estate.Resolve first hands the partition out.
func LocalSystem() *System {
	return &System{
		Name: "local",
		Site: "localhost",
		Partitions: []Partition{{
			Name:      "default",
			Processor: hostProc,
			Nodes:     1,
			Scheduler: "local",
			Launcher:  "local",
			Environs:  []string{"go"},
		}},
	}
}
