// Package repo holds package recipes: the curated knowledge of how each
// benchmark and library is built (the paper's Principle 2, "teach the
// build system", and the "Wisdom of the Crowd" curation it cites).
//
// A Repository maps package names to recipes. A recipe lists the known
// versions, the variants the build understands, its dependencies
// (possibly conditional, possibly on virtual packages such as "mpi"), and
// the build system used. The concretizer consumes recipes to turn
// abstract specs into concrete build DAGs.
package repo

import (
	"fmt"
	"sort"

	"repro/internal/spec"
)

// DepType classifies when a dependency is needed, following the usual
// package-manager split.
type DepType int

const (
	// BuildDep is needed only while building (e.g. cmake, python).
	BuildDep DepType = iota
	// LinkDep is linked into the result (e.g. mpi, kokkos).
	LinkDep
	// RunDep is needed at run time only (e.g. a runtime library).
	RunDep
)

func (t DepType) String() string {
	switch t {
	case BuildDep:
		return "build"
	case LinkDep:
		return "link"
	case RunDep:
		return "run"
	default:
		return fmt.Sprintf("DepType(%d)", int(t))
	}
}

// Dependency declares that a package needs another package (or a virtual
// package such as "mpi"), optionally constrained, optionally only when the
// depending spec satisfies a condition (Spack's `when=`).
type Dependency struct {
	Name       string
	Type       DepType
	Constraint *spec.Spec // additional constraints on the dependency; may be nil
	When       *spec.Spec // dependency applies only if root satisfies this; may be nil
}

// VariantDef declares a variant a package's build understands.
type VariantDef struct {
	Name        string
	Description string
	// Bool variants toggle; string variants choose one of Values.
	Bool    bool
	Default spec.VariantValue
	Values  []string // allowed values for string variants; empty = free-form
}

// Conflict declares that a spec satisfying When cannot be built, with a
// human-readable reason.
type Conflict struct {
	When   *spec.Spec
	Reason string
}

// Package is a build recipe.
type Package struct {
	Name        string
	Description string
	Homepage    string

	// Versions available, any order; the concretizer picks the highest
	// unless PreferredVersion is set or the spec constrains it.
	Versions         []spec.Version
	PreferredVersion spec.Version

	Variants     []VariantDef
	Dependencies []Dependency
	Conflicts    []Conflict

	// Provides lists virtual packages this recipe satisfies ("mpi").
	Provides []string

	// BuildSystem names the underlying build tool ("cmake", "make",
	// "autotools", "bundle"); used by internal/buildsys.
	BuildSystem string

	// BuildCost is a dimensionless effort figure used by the simulated
	// build system to derive deterministic build durations.
	BuildCost float64
}

// Variant returns the named variant definition, if declared.
func (p *Package) Variant(name string) (VariantDef, bool) {
	for _, v := range p.Variants {
		if v.Name == name {
			return v, true
		}
	}
	return VariantDef{}, false
}

// HighestVersion returns the best default version: PreferredVersion when
// set, otherwise the maximum of Versions.
func (p *Package) HighestVersion() (spec.Version, error) {
	if p.PreferredVersion != "" {
		return p.PreferredVersion, nil
	}
	if len(p.Versions) == 0 {
		return "", fmt.Errorf("repo: package %q declares no versions", p.Name)
	}
	best := p.Versions[0]
	for _, v := range p.Versions[1:] {
		if v.Compare(best) > 0 {
			best = v
		}
	}
	return best, nil
}

// BestVersionWithin returns the highest declared version satisfying r.
func (p *Package) BestVersionWithin(r spec.VersionRange) (spec.Version, error) {
	var best spec.Version
	for _, v := range p.Versions {
		if !r.Contains(v) {
			continue
		}
		if best == "" || v.Compare(best) > 0 {
			best = v
		}
	}
	if best == "" {
		return "", fmt.Errorf("repo: %s: no declared version satisfies @%s (have %v)", p.Name, r.String(), p.Versions)
	}
	return best, nil
}

// Repository is a named collection of recipes, like a Spack repo.
type Repository struct {
	Name     string
	packages map[string]*Package
}

// NewRepository returns an empty repository.
func NewRepository(name string) *Repository {
	return &Repository{Name: name, packages: map[string]*Package{}}
}

// Add registers a recipe, failing on duplicates or structural errors.
func (r *Repository) Add(p *Package) error {
	if p.Name == "" {
		return fmt.Errorf("repo: recipe with empty name")
	}
	if _, dup := r.packages[p.Name]; dup {
		return fmt.Errorf("repo: duplicate recipe %q", p.Name)
	}
	if len(p.Versions) == 0 {
		return fmt.Errorf("repo: recipe %q declares no versions", p.Name)
	}
	seen := map[string]bool{}
	for _, v := range p.Variants {
		if seen[v.Name] {
			return fmt.Errorf("repo: recipe %q declares variant %q twice", p.Name, v.Name)
		}
		seen[v.Name] = true
		if v.Bool != v.Default.IsBool {
			return fmt.Errorf("repo: recipe %q variant %q: default kind mismatch", p.Name, v.Name)
		}
		if !v.Bool && len(v.Values) > 0 && !contains(v.Values, v.Default.Str) {
			return fmt.Errorf("repo: recipe %q variant %q: default %q not among allowed values", p.Name, v.Name, v.Default.Str)
		}
	}
	r.packages[p.Name] = p
	return nil
}

// MustAdd is Add for statically known-good recipes.
func (r *Repository) MustAdd(p *Package) {
	if err := r.Add(p); err != nil {
		panic(err)
	}
}

// Get returns the recipe for a package name.
func (r *Repository) Get(name string) (*Package, error) {
	p, ok := r.packages[name]
	if !ok {
		return nil, fmt.Errorf("repo: no recipe for package %q", name)
	}
	return p, nil
}

// Has reports whether the repository contains the named recipe.
func (r *Repository) Has(name string) bool {
	_, ok := r.packages[name]
	return ok
}

// Names returns all recipe names, sorted.
func (r *Repository) Names() []string {
	names := make([]string, 0, len(r.packages))
	for n := range r.packages {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Providers returns the names of recipes providing the given virtual
// package, sorted.
func (r *Repository) Providers(virtual string) []string {
	var out []string
	for name, p := range r.packages {
		if contains(p.Provides, virtual) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// IsVirtual reports whether the name is a virtual package in this
// repository: no recipe of its own, but at least one provider.
func (r *Repository) IsVirtual(name string) bool {
	if r.Has(name) {
		return false
	}
	return len(r.Providers(name)) > 0
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
