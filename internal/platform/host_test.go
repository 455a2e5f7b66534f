package platform

import "testing"

// TestLocalCalibratesOnResolve: building the estate and looking the
// local system up must not run the bandwidth calibration; resolving it
// for a run must, and fills in the measured peak.
func TestLocalCalibratesOnResolve(t *testing.T) {
	// Calibration is once per process; this file sorts first so the
	// check is live in a plain run, and it stays true under -count.
	before := HostCalibrated()
	e := UKEstate()
	if _, err := e.System("local"); err != nil {
		t.Fatal(err)
	}
	if !before && HostCalibrated() {
		t.Fatal("building the estate calibrated the host")
	}
	_, part, err := e.Resolve("local")
	if err != nil {
		t.Fatal(err)
	}
	if !HostCalibrated() {
		t.Fatal("resolving local did not calibrate the host")
	}
	if part.Processor != HostProcessor() || part.Processor.PeakBandwidthGBs <= 0 {
		t.Fatalf("local processor %+v is not the calibrated host", part.Processor)
	}
}

// HostProcessor returns the calibrated description of this machine,
// measuring its memory bandwidth on the first call.
func HostProcessor() *Processor {
	calibrateHost()
	return hostProc
}
