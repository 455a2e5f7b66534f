package env

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/concretize"
	"repro/internal/repo"
	"repro/internal/spec"
	"repro/internal/yamlite"
)

func TestUKRegistryCoversEstate(t *testing.T) {
	r := UKRegistry()
	for _, name := range []string{"archer2", "cosma8", "csd3", "isambard-macs", "isambard-xci", "noctua2", "local"} {
		if !r.Known(name) {
			t.Errorf("missing config for %s", name)
		}
	}
}

func TestDefaultCompilersMatchTable3(t *testing.T) {
	r := UKRegistry()
	want := map[string]string{
		"archer2":       "11.2.0",
		"cosma8":        "11.1.0",
		"csd3":          "11.2.0",
		"isambard-macs": "9.2.0",
	}
	for sys, ver := range want {
		c := r.ForSystem(sys).Compilers[0]
		if c.Name != "gcc" || c.Version.String() != ver {
			t.Errorf("%s default compiler = %%%s, want gcc@%s", sys, c, ver)
		}
	}
}

func TestTable3EndToEnd(t *testing.T) {
	// The full path the paper takes for Table 3: per-system env config →
	// concretizer → dependency versions.
	reg := UKRegistry()
	builtin := repo.Builtin()
	want := map[string][4]string{ // system -> {mpi lib, mpi ver, python ver, gcc ver}
		"archer2":       {"cray-mpich", "8.1.23", "3.10.12", "11.2.0"},
		"cosma8":        {"mvapich2", "2.3.6", "2.7.15", "11.1.0"},
		"csd3":          {"openmpi", "4.0.4", "3.8.2", "11.2.0"},
		"isambard-macs": {"openmpi", "4.0.3", "3.7.5", "9.2.0"},
	}
	for sys, exp := range want {
		cfg := reg.ForSystem(sys)
		res, err := concretize.Concretize(spec.MustParse("hpgmg%gcc"), cfg.ConcretizeOptions(builtin, "x86_64"))
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		// The bare %gcc constraint resolves to the system's preferred
		// gcc — Table 3's compiler column.
		if got := res.Spec.Compiler.Version.String(); got != exp[3] {
			t.Errorf("%s: gcc = %s, want %s", sys, got, exp[3])
		}
		mpi := res.Spec.Lookup(exp[0])
		if mpi == nil || mpi.Version.String() != exp[1] {
			t.Errorf("%s: MPI = %v, want %s@%s", sys, mpi, exp[0], exp[1])
		}
		py := res.Spec.Lookup("python")
		if py == nil || py.Version.String() != exp[2] {
			t.Errorf("%s: python = %v, want %s", sys, py, exp[2])
		}
	}
}

func TestUnknownSystemGetsBasicEnvironment(t *testing.T) {
	r := UKRegistry()
	c := r.ForSystem("brand-new-machine")
	if c.System != "brand-new-machine" {
		t.Errorf("system = %q", c.System)
	}
	if len(c.Compilers) == 0 {
		t.Error("basic environment must still offer a compiler")
	}
	if len(c.Externals) != 0 {
		t.Error("basic environment must not invent system packages")
	}
	if r.Known("brand-new-machine") {
		t.Error("fallback config should not be marked known")
	}
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Add(&SystemConfig{}); err == nil {
		t.Error("empty system name accepted")
	}
	c := &SystemConfig{System: "x"}
	if err := r.Add(c); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(c); err == nil {
		t.Error("duplicate accepted")
	}
	if got := r.Names(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Names = %v", got)
	}
}

func TestCaptureEnvironment(t *testing.T) {
	t.Setenv("OMP_NUM_THREADS", "8")
	t.Setenv("IRRELEVANT_VARIABLE", "noise")
	c := CaptureEnvironment()
	if c.Hostname == "" && c.OS == "" {
		t.Error("capture is empty")
	}
	if c.EnvVars["OMP_NUM_THREADS"] != "8" {
		t.Error("relevant env var not captured")
	}
	if _, ok := c.EnvVars["IRRELEVANT_VARIABLE"]; ok {
		t.Error("irrelevant env var captured")
	}
	if c.GoVersion == "" || c.NumCPU < 1 || c.Timestamp.IsZero() {
		t.Errorf("capture fields unset: %+v", c)
	}
}

// TestYAMLRoundTrip pins what `gpack env` prints for every builtin
// system to a golden file, and checks the output reads back as YAML
// naming the same system.
func TestYAMLRoundTrip(t *testing.T) {
	reg := UKRegistry()
	for _, name := range reg.Names() {
		text := reg.ForSystem(name).YAML()
		golden, err := os.ReadFile(filepath.Join("testdata", name+".yaml"))
		if err != nil {
			t.Fatal(err)
		}
		if text != string(golden) {
			t.Errorf("%s: YAML() =\n%s\nwant (testdata/%s.yaml)\n%s", name, text, name, golden)
		}
		doc, err := yamlite.Parse(text)
		if err != nil {
			t.Fatalf("%s: output does not parse: %v\n%s", name, err, text)
		}
		m, err := yamlite.Map(doc)
		if err != nil {
			t.Fatalf("%s: top level is not a mapping: %v", name, err)
		}
		if sys, err := yamlite.Str(m["system"]); err != nil || sys != name {
			t.Errorf("%s: system = %q, %v", name, sys, err)
		}
	}
}
