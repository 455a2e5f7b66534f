package platform

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

var metricHostCalibration = telemetry.DefaultRegistry.Gauge(
	"platform_host_calibration_seconds",
	"Wall-clock duration of the host memory-bandwidth calibration (set once, the first time the local system is resolved).").With()

// hostProc describes the machine this process is running on. Everything
// but PeakBandwidthGBs is known statically; the bandwidth is measured,
// not theoretical, and stays zero until calibrateHost has run.
var hostProc = &Processor{
	Vendor:             "host",
	Name:               runtime.GOARCH,
	Microarch:          "host",
	Kind:               CPU,
	Arch:               hostArch(),
	Sockets:            1,
	CoresPerSocket:     runtime.NumCPU(),
	ClockGHz:           2.0, // unknown without cpuid; nominal
	L3CachePerSocketMB: 32,
	MemoryGB:           16,
	NUMADomains:        1,
	PeakGFlopsFP64:     float64(runtime.NumCPU()) * 2.0 * 4,
	TDPWatts:           15 * float64(runtime.NumCPU()), // nominal per-core estimate
}

var (
	hostOnce       sync.Once
	hostCalibrated atomic.Bool
)

// calibrateHost measures the host's memory bandwidth, once per process,
// so local runs can still report an efficiency. It costs a few hundred
// milliseconds, which is why it runs when the local system is first
// resolved (Estate.Resolve) and not when an estate is built: a daemon
// that never runs on "local" never pays it.
func calibrateHost() {
	hostOnce.Do(func() {
		start := time.Now()
		hostProc.PeakBandwidthGBs = measureHostBandwidth()
		metricHostCalibration.Set(time.Since(start).Seconds())
		hostCalibrated.Store(true)
	})
}

// HostProcessor returns the calibrated description of this machine,
// measuring its memory bandwidth on the first call.
func HostProcessor() *Processor {
	calibrateHost()
	return hostProc
}

// HostCalibrated reports whether the host bandwidth calibration has run
// in this process.
func HostCalibrated() bool { return hostCalibrated.Load() }

func hostArch() Arch {
	switch runtime.GOARCH {
	case "arm64":
		return AArch64
	default:
		return X86_64
	}
}

// measureHostBandwidth runs a brief parallel triad over a buffer larger
// than any plausible LLC and reports the best observed rate in GB/s. This
// stands in for the "theoretical peak" denominator on machines whose
// specs we cannot know, so local efficiencies are relative to the best
// the host demonstrated rather than a datasheet.
func measureHostBandwidth() float64 {
	const n = 1 << 24 // 16M doubles per array = 128 MB, 3 arrays
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		b[i] = 1.5
		c[i] = 2.5
	}
	workers := runtime.NumCPU()
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		elapsed := parallelTriad(a, b, c, workers)
		bytes := float64(3 * n * 8)
		if gbs := bytes / elapsed / 1e9; gbs > best {
			best = gbs
		}
	}
	if best <= 0 {
		return 1
	}
	return best
}

func parallelTriad(a, b, c []float64, workers int) float64 {
	var wg sync.WaitGroup
	n := len(a)
	chunk := (n + workers - 1) / workers
	start := nowSeconds()
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			const scalar = 0.4
			for i := lo; i < hi; i++ {
				a[i] = b[i] + scalar*c[i]
			}
		}(lo, hi)
	}
	wg.Wait()
	return nowSeconds() - start
}
