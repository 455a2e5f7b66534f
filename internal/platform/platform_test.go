package platform

import (
	"math"
	"testing"
)

func TestTable1Peaks(t *testing.T) {
	// Table 1: peak memory bandwidth per node.
	cases := []struct {
		p    *Processor
		want float64
	}{
		{CascadeLake6230, 282},
		{ThunderX2, 288},
		{EPYCMilan7763, 409.6},
		{TeslaV100, 900},
	}
	for _, c := range cases {
		if c.p.PeakBandwidthGBs != c.want {
			t.Errorf("%s peak BW = %g, want %g", c.p, c.p.PeakBandwidthGBs, c.want)
		}
	}
	rows := Table1Processors()
	if len(rows) != 4 {
		t.Fatalf("Table1Processors returned %d rows", len(rows))
	}
	if rows[0] != CascadeLake6230 || rows[3] != TeslaV100 {
		t.Error("Table 1 row order wrong")
	}
}

func TestTable5CoreCounts(t *testing.T) {
	// Table 5: cores/socket and socket counts.
	cases := []struct {
		p              *Processor
		coresPerSocket int
		sockets        int
		clock          float64
	}{
		{ThunderX2, 32, 2, 2.5},
		{CascadeLake6230, 20, 2, 2.1},
		{EPYCRome7H12, 64, 2, 2.6},
		{EPYCRome7742, 64, 2, 2.25},
		{CascadeLake8276, 28, 2, 2.2},
		{EPYCMilan7763, 64, 2, 2.45},
	}
	for _, c := range cases {
		if c.p.CoresPerSocket != c.coresPerSocket || c.p.Sockets != c.sockets {
			t.Errorf("%s: %dx%d, want %dx%d", c.p, c.p.Sockets, c.p.CoresPerSocket, c.sockets, c.coresPerSocket)
		}
		if math.Abs(c.p.ClockGHz-c.clock) > 1e-9 {
			t.Errorf("%s clock = %g, want %g", c.p, c.p.ClockGHz, c.clock)
		}
	}
}

func TestMilanCacheForcesLargeArray(t *testing.T) {
	// §3.1: Milan has 256 MB/socket L3 = 512 MB/node, so the 2^25
	// array (768 MB total over three arrays... actually 2^25 doubles =
	// 256MB/array) would NOT defeat its cache; the 2^29 size is needed.
	if got := EPYCMilan7763.L3CacheTotalMB(); got != 512 {
		t.Errorf("Milan node L3 = %g MB, want 512", got)
	}
	if got := CascadeLake6230.L3CacheTotalMB(); got != 55 {
		t.Errorf("Cascade Lake node L3 = %g MB, want 55", got)
	}
}

func TestEstateLookup(t *testing.T) {
	e := UKEstate()
	for _, name := range []string{"archer2", "cosma8", "csd3", "isambard-xci", "isambard-macs", "noctua2", "local"} {
		if _, err := e.System(name); err != nil {
			t.Errorf("System(%q): %v", name, err)
		}
	}
	// Aliases from the paper's Figure 2 row labels.
	s, err := e.System("paderborn-milan")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "noctua2" {
		t.Errorf("paderborn-milan resolved to %q", s.Name)
	}
	if _, err := e.System("frontier"); err == nil {
		t.Error("unknown system must error")
	}
}

func TestResolvePartitionSyntax(t *testing.T) {
	e := UKEstate()
	sys, part, err := e.Resolve("isambard-macs:cascadelake")
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name != "isambard-macs" || part.Name != "cascadelake" {
		t.Errorf("resolved %s:%s", sys.Name, part.Name)
	}
	if part.Processor != CascadeLake6230 {
		t.Error("wrong processor on cascadelake partition")
	}
	_, volta, err := e.Resolve("isambard-macs:volta")
	if err != nil {
		t.Fatal(err)
	}
	if volta.Processor.Kind != GPU {
		t.Error("volta partition should be a GPU")
	}
	// Single-partition systems need no partition name.
	_, part, err = e.Resolve("archer2")
	if err != nil {
		t.Fatal(err)
	}
	if part.Name != "compute" {
		t.Errorf("archer2 default partition = %q", part.Name)
	}
	// Multi-partition systems do.
	if _, _, err := e.Resolve("isambard-macs"); err == nil {
		t.Error("ambiguous partition must error")
	}
	if _, _, err := e.Resolve("archer2:gpu"); err == nil {
		t.Error("unknown partition must error")
	}
}

func TestEstateValidation(t *testing.T) {
	e := NewEstate()
	if err := e.Add(&System{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if err := e.Add(&System{Name: "s"}); err == nil {
		t.Error("no partitions accepted")
	}
	bad := &System{Name: "s", Partitions: []Partition{{Name: "p", Nodes: 1}}}
	if err := e.Add(bad); err == nil {
		t.Error("nil processor accepted")
	}
	ok := &System{Name: "s", Partitions: []Partition{{Name: "p", Processor: ThunderX2, Nodes: 1}}}
	if err := e.Add(ok); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(ok); err == nil {
		t.Error("duplicate system accepted")
	}
	dupAlias := &System{Name: "s2", Aliases: []string{"s3", "s3"}, Partitions: []Partition{{Name: "p", Processor: ThunderX2, Nodes: 1}}}
	if err := e.Add(dupAlias); err == nil {
		t.Error("duplicate alias accepted")
	}
}

func TestSchedulersMatchSites(t *testing.T) {
	e := UKEstate()
	want := map[string]string{
		"archer2:compute":           "slurm",
		"csd3:cascadelake":          "slurm",
		"cosma8:compute":            "slurm",
		"noctua2:milan":             "slurm",
		"isambard-xci:compute":      "pbs",
		"isambard-macs:cascadelake": "pbs",
		"local:default":             "local",
	}
	for target, sched := range want {
		_, part, err := e.Resolve(target)
		if err != nil {
			t.Errorf("%s: %v", target, err)
			continue
		}
		if part.Scheduler != sched {
			t.Errorf("%s scheduler = %q, want %q", target, part.Scheduler, sched)
		}
	}
}

func TestHostProcessor(t *testing.T) {
	p := HostProcessor()
	if p.TotalCores() <= 0 {
		t.Error("host must have cores")
	}
	if p.PeakBandwidthGBs <= 0 {
		t.Error("host bandwidth estimate must be positive")
	}
	// Cached: same pointer on second call.
	if HostProcessor() != p {
		t.Error("HostProcessor must cache")
	}
}

func TestDeviceKindString(t *testing.T) {
	if CPU.String() != "cpu" || GPU.String() != "gpu" {
		t.Error("DeviceKind strings wrong")
	}
}

func TestPeakFlopsSanity(t *testing.T) {
	// Rough sanity: V100 FP64 ~7 TF; Rome node > Cascade Lake node in
	// bandwidth but AVX-512 keeps CL competitive in flops.
	if TeslaV100.PeakGFlopsFP64 < 6000 || TeslaV100.PeakGFlopsFP64 > 8000 {
		t.Errorf("V100 peak = %g", TeslaV100.PeakGFlopsFP64)
	}
	if EPYCRome7742.PeakBandwidthGBs <= CascadeLake6230.PeakBandwidthGBs {
		t.Error("Rome node bandwidth should exceed Cascade Lake")
	}
}
