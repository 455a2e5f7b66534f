// Package concretize turns abstract specs into concrete build DAGs, the
// role Spack's concretizer plays in the paper's framework (§2.2).
//
// Concretization combines three inputs:
//
//   - the abstract spec the user asked for (possibly just a name),
//   - the recipe repository (versions, variants, conditional and virtual
//     dependencies, conflicts),
//   - the system configuration (available compilers, external packages
//     such as the system MPI, provider preferences).
//
// The output is a deterministic concrete spec plus a provenance trace —
// every decision is recorded so the build can be audited later, the
// paper's "archaeological reproducibility" (Principle 4). Table 3 of the
// paper (the gcc/python/MPI versions chosen for hpgmg on four systems) is
// exactly the observable output of this process.
package concretize

import (
	"fmt"
	"sort"

	"repro/internal/repo"
	"repro/internal/spec"
)

// External describes a system-provided package installation that the
// concretizer may use instead of building from source — the equivalent of
// a packages.yaml external in Spack.
type External struct {
	// Spec must pin name and exact version, e.g. cray-mpich@8.1.23.
	Spec *spec.Spec
	// Path is where the installation lives on the system.
	Path string
}

// Options configures one concretization run; it encodes the per-system
// knowledge that the framework ships as system configurations.
type Options struct {
	Repo *repo.Repository

	// Externals are system-provided installations, preferred over
	// building from source when they satisfy the constraints.
	Externals []External

	// Compilers lists the compilers installed on the system, with exact
	// versions. The first entry whose name matches a requested compiler
	// (or the first entry overall when no compiler is requested) wins.
	Compilers []spec.Compiler

	// Providers maps a virtual package name to the preferred provider
	// recipe on this system (e.g. "mpi" -> "cray-mpich"). Externals that
	// provide the virtual take precedence over this preference.
	Providers map[string]string

	// TargetArch, when non-empty, is assigned to any recipe variant
	// named "target" that the user did not set, letting recipes declare
	// architecture conflicts (e.g. intel-tbb on aarch64).
	TargetArch string
}

// Result is a concretized spec plus the decision trace.
type Result struct {
	Spec  *spec.Spec
	Steps []string
}

type resolver struct {
	opts    Options
	steps   []string
	visited map[string]*spec.Spec // package name -> concretized spec (DAG dedup)
	stack   map[string]bool       // cycle detection
}

// Concretize resolves the abstract spec into a concrete build DAG.
// The same inputs always produce the same output.
func Concretize(abstract *spec.Spec, opts Options) (*Result, error) {
	if opts.Repo == nil {
		return nil, fmt.Errorf("concretize: no repository configured")
	}
	if abstract == nil {
		return nil, fmt.Errorf("concretize: nil spec")
	}
	r := &resolver{
		opts:    opts,
		visited: map[string]*spec.Spec{},
		stack:   map[string]bool{},
	}
	root, err := r.resolve(abstract.Copy(), spec.Compiler{})
	if err != nil {
		return nil, err
	}
	if err := root.Validate(); err != nil {
		return nil, fmt.Errorf("concretize: internal error: %w", err)
	}
	return &Result{Spec: root, Steps: r.steps}, nil
}

func (r *resolver) logf(format string, args ...interface{}) {
	r.steps = append(r.steps, fmt.Sprintf(format, args...))
}

// resolve concretizes one package node. parentCompiler is inherited when
// the node has no compiler constraint of its own.
func (r *resolver) resolve(s *spec.Spec, parentCompiler spec.Compiler) (*spec.Spec, error) {
	if r.stack[s.Name] {
		return nil, fmt.Errorf("concretize: dependency cycle through %q", s.Name)
	}
	if prev, ok := r.visited[s.Name]; ok {
		// Unify with the constraints of this occurrence: a diamond
		// dependency must agree with what was already decided.
		if !prev.Satisfies(stripDeps(s)) {
			return nil, fmt.Errorf("concretize: %s already resolved to %q which does not satisfy %q",
				s.Name, prev.RootString(), s.RootString())
		}
		return prev, nil
	}
	r.stack[s.Name] = true
	defer delete(r.stack, s.Name)

	// External installations satisfy the node without building.
	if ext := r.findExternal(s); ext != nil {
		out := ext.Spec.Copy()
		out.Concrete = true
		out.External = true
		out.ExternalPath = ext.Path
		r.visited[s.Name] = out
		r.visited[out.Name] = out
		r.logf("%s: using external %s at %s", s.Name, out.RootString(), ext.Path)
		return out, nil
	}

	pkg, err := r.opts.Repo.Get(s.Name)
	if err != nil {
		if r.opts.Repo.IsVirtual(s.Name) {
			return r.resolveVirtual(s, parentCompiler)
		}
		return nil, fmt.Errorf("concretize: %w", err)
	}

	out := s.Copy()

	// Version: highest declared version satisfying the constraint.
	var version spec.Version
	if out.Version.IsAny() {
		version, err = pkg.HighestVersion()
	} else {
		version, err = pkg.BestVersionWithin(out.Version)
	}
	if err != nil {
		return nil, fmt.Errorf("concretize: %s: %w", s.Name, err)
	}
	out.Version = spec.ExactVersion(version)
	r.logf("%s: version %s", s.Name, version)

	// Variants: reject unknown ones, fill defaults for the rest.
	for name, v := range out.Variants {
		def, ok := pkg.Variant(name)
		if !ok {
			return nil, fmt.Errorf("concretize: %s has no variant %q (known: %s)", s.Name, name, variantNames(pkg))
		}
		if def.Bool != v.IsBool {
			return nil, fmt.Errorf("concretize: %s: variant %q is %s-valued", s.Name, name, kindName(def.Bool))
		}
		if !v.IsBool && len(def.Values) > 0 && !containsStr(def.Values, v.Str) {
			return nil, fmt.Errorf("concretize: %s: variant %s=%s not in allowed values %v", s.Name, name, v.Str, def.Values)
		}
	}
	for _, def := range pkg.Variants {
		if _, set := out.Variants[def.Name]; set {
			continue
		}
		v := def.Default
		if def.Name == "target" && r.opts.TargetArch != "" && !def.Bool {
			v = spec.StrVariant(r.opts.TargetArch)
			r.logf("%s: variant target=%s (from system architecture)", s.Name, r.opts.TargetArch)
		} else {
			r.logf("%s: variant %s (default)", s.Name, v.Render(def.Name))
		}
		v.Default = true
		out.SetVariant(def.Name, v)
	}

	// Compiler: explicit > inherited > system default.
	comp := out.Compiler
	if comp.IsEmpty() {
		comp = parentCompiler
	}
	pinned, err := r.pinCompiler(comp)
	if err != nil {
		return nil, fmt.Errorf("concretize: %s: %w", s.Name, err)
	}
	out.Compiler = pinned
	r.logf("%s: compiler %%%s", s.Name, pinned)

	// Conflicts.
	for _, c := range pkg.Conflicts {
		if out.Satisfies(c.When) {
			return nil, fmt.Errorf("concretize: %s conflicts with %q: %s", out.RootString(), c.When, c.Reason)
		}
	}

	// Pre-register so dependency diamonds resolve to this node.
	r.visited[s.Name] = out

	// Dependencies: recipe deps (conditional and virtual) merged with the
	// user's explicit ^dep constraints.
	explicit := out.Deps
	out.Deps = map[string]*spec.Spec{}
	consumed := map[string]bool{}
	for _, d := range pkg.Dependencies {
		if d.When != nil && !out.Satisfies(d.When) {
			continue
		}
		want := spec.New(d.Name)
		if d.Constraint != nil {
			if err := want.Constrain(d.Constraint); err != nil {
				return nil, fmt.Errorf("concretize: %s dependency %s: %w", s.Name, d.Name, err)
			}
		}
		// Merge explicit constraints for this name, or for a provider
		// of this virtual.
		if exp, ok := explicit[d.Name]; ok {
			if err := want.Constrain(exp); err != nil {
				return nil, fmt.Errorf("concretize: %s dependency %s: %w", s.Name, d.Name, err)
			}
			consumed[d.Name] = true
		} else if r.opts.Repo.IsVirtual(d.Name) {
			for _, prov := range r.opts.Repo.Providers(d.Name) {
				if exp, ok := explicit[prov]; ok {
					// User pinned the provider explicitly.
					want = exp.Copy()
					consumed[prov] = true
					break
				}
			}
		}
		dep, err := r.resolve(want, pinned)
		if err != nil {
			return nil, err
		}
		out.Deps[dep.Name] = dep
	}
	// Any leftover explicit deps are additional user-requested packages.
	for _, name := range sortedKeys(explicit) {
		if consumed[name] {
			continue
		}
		if _, already := out.Deps[name]; already {
			continue
		}
		dep, err := r.resolve(explicit[name], pinned)
		if err != nil {
			return nil, err
		}
		out.Deps[dep.Name] = dep
	}

	out.Concrete = true
	return out, nil
}

// resolveVirtual picks a provider for a virtual package like "mpi":
// external providers first, then the system preference, then the first
// provider alphabetically.
func (r *resolver) resolveVirtual(s *spec.Spec, parentCompiler spec.Compiler) (*spec.Spec, error) {
	providers := r.opts.Repo.Providers(s.Name)
	if len(providers) == 0 {
		return nil, fmt.Errorf("concretize: no recipe or provider for %q", s.Name)
	}
	// An external that provides the virtual wins.
	for _, ext := range r.opts.Externals {
		pkg, err := r.opts.Repo.Get(ext.Spec.Name)
		if err != nil {
			continue
		}
		if containsStr(pkg.Provides, s.Name) {
			want := ext.Spec.Copy()
			// The virtual's constraints (e.g. mpi@3:) must hold.
			if !want.Satisfies(renamed(s, want.Name)) {
				continue
			}
			r.logf("%s: virtual provided by external %s", s.Name, want.RootString())
			return r.resolve(want, parentCompiler)
		}
	}
	choice := providers[0]
	if pref, ok := r.opts.Providers[s.Name]; ok {
		if !containsStr(providers, pref) {
			return nil, fmt.Errorf("concretize: preferred provider %q does not provide %q", pref, s.Name)
		}
		choice = pref
	} else if containsStr(providers, "openmpi") && s.Name == "mpi" {
		choice = "openmpi" // conventional default provider
	}
	r.logf("%s: virtual provided by %s", s.Name, choice)
	return r.resolve(renamed(s, choice), parentCompiler)
}

// renamed copies s's root constraints onto a different package name.
func renamed(s *spec.Spec, name string) *spec.Spec {
	out := s.Copy()
	out.Name = name
	return out
}

// stripDeps returns a copy of s without dependency constraints, for
// unification checks against an already-resolved node.
func stripDeps(s *spec.Spec) *spec.Spec {
	out := s.Copy()
	out.Deps = map[string]*spec.Spec{}
	return out
}

// findExternal returns the first external satisfying the node's own
// constraints (name, version, variants), or nil.
func (r *resolver) findExternal(s *spec.Spec) *External {
	for i := range r.opts.Externals {
		ext := &r.opts.Externals[i]
		if ext.Spec.Name != s.Name {
			continue
		}
		if ext.Spec.Satisfies(stripDeps(s)) {
			return ext
		}
	}
	return nil
}

// pinCompiler resolves a compiler constraint to an exact installed
// compiler. With no constraint, the system's first compiler is used; with
// no compilers configured, a fixed fallback keeps single-package tests
// hermetic.
func (r *resolver) pinCompiler(want spec.Compiler) (spec.Compiler, error) {
	if len(r.opts.Compilers) == 0 {
		if want.IsEmpty() {
			return spec.Compiler{Name: "gcc", Version: spec.ExactVersion("12.1.0")}, nil
		}
		if want.Version.IsExact() {
			return want, nil
		}
		return spec.Compiler{}, fmt.Errorf("no compilers configured and %%%s is not exact", want)
	}
	if want.IsEmpty() {
		return r.opts.Compilers[0], nil
	}
	if want.Version.IsAny() {
		// Name-only constraint: the system's preference order decides
		// (the first matching entry). This is how Isambard MACS pins
		// gcc 9.2.0 while offering newer compilers — the paper notes
		// newer GCCs conflict with some build systems there.
		for _, c := range r.opts.Compilers {
			if c.Name == want.Name {
				return c, nil
			}
		}
		return spec.Compiler{}, fmt.Errorf("no installed compiler named %q (have %s)", want.Name, compilerList(r.opts.Compilers))
	}
	// Version-constrained: highest installed version that satisfies.
	var best spec.Compiler
	for _, c := range r.opts.Compilers {
		if c.Name != want.Name || !c.Satisfies(want) {
			continue
		}
		if best.IsEmpty() || c.Version.Lo.Compare(best.Version.Lo) > 0 {
			best = c
		}
	}
	if best.IsEmpty() {
		return spec.Compiler{}, fmt.Errorf("no installed compiler satisfies %%%s (have %s)", want, compilerList(r.opts.Compilers))
	}
	return best, nil
}

func compilerList(cs []spec.Compiler) string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = "%" + c.String()
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func variantNames(p *repo.Package) string {
	names := make([]string, len(p.Variants))
	for i, v := range p.Variants {
		names[i] = v.Name
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func kindName(isBool bool) string {
	if isBool {
		return "boolean"
	}
	return "string"
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]*spec.Spec) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
