package repo

import (
	"testing"

	"repro/internal/spec"
)

func TestBuiltinLoads(t *testing.T) {
	r := Builtin()
	for _, name := range []string{
		"babelstream", "hpcg", "hpgmg", "stream",
		"gcc", "oneapi", "cmake", "python",
		"openmpi", "mpich", "cray-mpich", "mvapich2",
		"kokkos", "cuda", "intel-tbb", "pocl",
	} {
		if !r.Has(name) {
			t.Errorf("builtin repo missing %q", name)
		}
	}
}

func TestVirtualProviders(t *testing.T) {
	r := Builtin()
	mpi := r.Providers("mpi")
	want := []string{"cray-mpich", "mpich", "mvapich2", "openmpi"}
	if len(mpi) != len(want) {
		t.Fatalf("mpi providers = %v, want %v", mpi, want)
	}
	for i := range want {
		if mpi[i] != want[i] {
			t.Fatalf("mpi providers = %v, want %v", mpi, want)
		}
	}
	if !r.IsVirtual("mpi") {
		t.Error("mpi should be virtual")
	}
	if r.IsVirtual("openmpi") {
		t.Error("openmpi is a real package, not virtual")
	}
	if r.IsVirtual("no-such-thing") {
		t.Error("unknown names are not virtual")
	}
	ocl := r.Providers("opencl")
	if len(ocl) != 2 || ocl[0] != "cuda" || ocl[1] != "pocl" {
		t.Errorf("opencl providers = %v", ocl)
	}
}

func TestHighestVersion(t *testing.T) {
	r := Builtin()
	gcc, err := r.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	v, err := gcc.HighestVersion()
	if err != nil {
		t.Fatal(err)
	}
	if v != "12.1.0" {
		t.Errorf("gcc highest = %s, want 12.1.0", v)
	}
	// Preferred version overrides the maximum.
	bs, _ := r.Get("babelstream")
	v, err = bs.HighestVersion()
	if err != nil {
		t.Fatal(err)
	}
	if v != "4.0" {
		t.Errorf("babelstream preferred = %s, want 4.0", v)
	}
}

func TestBestVersionWithin(t *testing.T) {
	r := Builtin()
	gcc, _ := r.Get("gcc")
	rng, err := spec.ParseVersionRange("10:11")
	if err != nil {
		t.Fatal(err)
	}
	v, err := gcc.BestVersionWithin(rng)
	if err != nil {
		t.Fatal(err)
	}
	if v != "11.2.0" {
		t.Errorf("best gcc in 10:11 = %s, want 11.2.0", v)
	}
	if _, err := gcc.BestVersionWithin(spec.ExactVersion("99.0")); err == nil {
		t.Error("expected error for unsatisfiable range")
	}
}

func TestConditionalDependencies(t *testing.T) {
	r := Builtin()
	bs, _ := r.Get("babelstream")
	var kokkosWhen *spec.Spec
	for _, d := range bs.Dependencies {
		if d.Name == "kokkos" {
			kokkosWhen = d.When
		}
	}
	if kokkosWhen == nil {
		t.Fatal("babelstream must depend on kokkos conditionally")
	}
	on := spec.MustParse("babelstream model=kokkos")
	off := spec.MustParse("babelstream model=omp")
	if !on.Satisfies(kokkosWhen) {
		t.Error("model=kokkos should trigger the kokkos dependency")
	}
	if off.Satisfies(kokkosWhen) {
		t.Error("model=omp should not trigger the kokkos dependency")
	}
}

func TestAddValidation(t *testing.T) {
	r := NewRepository("t")
	if err := r.Add(&Package{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Add(&Package{Name: "p"}); err == nil {
		t.Error("no versions accepted")
	}
	ok := &Package{Name: "p", Versions: vs("1.0")}
	if err := r.Add(ok); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(ok); err == nil {
		t.Error("duplicate accepted")
	}
	bad := &Package{
		Name:     "q",
		Versions: vs("1.0"),
		Variants: []VariantDef{
			{Name: "v", Bool: true, Default: spec.StrVariant("x")},
		},
	}
	if err := r.Add(bad); err == nil {
		t.Error("variant default kind mismatch accepted")
	}
	bad2 := &Package{
		Name:     "s",
		Versions: vs("1.0"),
		Variants: []VariantDef{
			{Name: "m", Default: spec.StrVariant("zzz"), Values: []string{"a", "b"}},
		},
	}
	if err := r.Add(bad2); err == nil {
		t.Error("default outside allowed values accepted")
	}
	dupVar := &Package{
		Name:     "u",
		Versions: vs("1.0"),
		Variants: []VariantDef{
			{Name: "m", Bool: true, Default: spec.BoolVariant(true)},
			{Name: "m", Bool: true, Default: spec.BoolVariant(false)},
		},
	}
	if err := r.Add(dupVar); err == nil {
		t.Error("duplicate variant accepted")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Builtin().Get("definitely-not-real"); err == nil {
		t.Error("expected error for unknown package")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Builtin().Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	if len(names) < 15 {
		t.Errorf("expected a rich builtin repo, got %d recipes", len(names))
	}
}

func TestDepTypeString(t *testing.T) {
	if BuildDep.String() != "build" || LinkDep.String() != "link" || RunDep.String() != "run" {
		t.Error("DepType string forms wrong")
	}
}
