package service

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/telemetry"
)

// TestBootDoesNotCalibrateHost: the host bandwidth calibration costs a
// few hundred milliseconds and only the "local" system needs it, so a
// daemon boot must not run it; resolving "local" must.
func TestBootDoesNotCalibrateHost(t *testing.T) {
	// Calibration is once per process: when an earlier test (or -count
	// iteration) already paid it, only the second half can be observed.
	before := platform.HostCalibrated()
	srv, _ := newTestServer(t)
	if !before && platform.HostCalibrated() {
		t.Fatal("service.New calibrated the host: the triad sweep is back on the boot path")
	}
	_, part, err := srv.runner.Estate.Resolve("local")
	if err != nil {
		t.Fatal(err)
	}
	if !platform.HostCalibrated() {
		t.Fatal("resolving local did not calibrate the host")
	}
	if part.Processor.PeakBandwidthGBs <= 0 {
		t.Fatalf("local peak bandwidth = %g after calibration", part.Processor.PeakBandwidthGBs)
	}
	if v, ok := telemetry.DefaultRegistry.Value("platform_host_calibration_seconds"); !ok || v <= 0 {
		t.Fatalf("platform_host_calibration_seconds = %g, %v after calibration", v, ok)
	}
}

// TestBootPhasesAccountForBoot: the benchd_boot_seconds phases are set
// by New and add up to its total.
func TestBootPhasesAccountForBoot(t *testing.T) {
	newTestServer(t)
	total, ok := telemetry.DefaultRegistry.Value("benchd_boot_seconds", "total")
	if !ok || total <= 0 {
		t.Fatalf("benchd_boot_seconds{total} = %g, %v", total, ok)
	}
	sum := 0.0
	for _, phase := range []string{"manifest_open", "tail_sync", "registries_load"} {
		v, ok := telemetry.DefaultRegistry.Value("benchd_boot_seconds", phase)
		if !ok || v < 0 {
			t.Fatalf("benchd_boot_seconds{%s} = %g, %v", phase, v, ok)
		}
		sum += v
	}
	if sum > total {
		t.Fatalf("phases sum to %gs, more than the total %gs", sum, total)
	}
}
