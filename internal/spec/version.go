// Package spec implements the package-spec language used throughout the
// benchmarking framework to describe software builds.
//
// The grammar follows the Spack spec syntax described in the paper
// (Principle 2 and 4): a spec names a package together with constraints on
// its version, compiler, variants, and dependencies, e.g.
//
//	babelstream@4.0%gcc@9.2.0 +omp ^kokkos@3.7 ^openmpi@4.0.4
//
// A spec may be abstract (leaving some of these unconstrained) or concrete
// (everything pinned). The concretizer in internal/concretize turns the
// former into the latter.
package spec

import (
	"fmt"
	"strconv"
	"strings"
)

// Version is a dotted software version such as "9.2.0" or "2021.1".
// Components are compared numerically when both are numeric, and
// lexicographically otherwise, matching the common package-manager ordering.
type Version string

// Parts splits the version into its dot-separated components.
func (v Version) Parts() []string {
	if v == "" {
		return nil
	}
	return strings.Split(string(v), ".")
}

// Compare orders two versions: -1 if v < w, 0 if equal, +1 if v > w.
// A shorter version that is a prefix of a longer one compares lower
// ("1.2" < "1.2.1").
func (v Version) Compare(w Version) int {
	a, b := v.Parts(), w.Parts()
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := compareComponent(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

func compareComponent(a, b string) int {
	na, aerr := strconv.Atoi(a)
	nb, berr := strconv.Atoi(b)
	switch {
	case aerr == nil && berr == nil:
		switch {
		case na < nb:
			return -1
		case na > nb:
			return 1
		default:
			return 0
		}
	case aerr == nil: // numeric sorts before non-numeric ("1" < "rc1")
		return -1
	case berr == nil:
		return 1
	default:
		return strings.Compare(a, b)
	}
}

// IsPrefixOf reports whether v is a dotted prefix of w, so that "9.2"
// is satisfied by the concrete version "9.2.0".
func (v Version) IsPrefixOf(w Version) bool {
	a, b := v.Parts(), w.Parts()
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// VersionRange constrains a version to an inclusive interval. A zero
// bound means unbounded on that side. Exact == true means the range pins a
// single version (Lo == Hi) that must match exactly (by dotted prefix, as
// package managers treat "@9.2" as matching "9.2.0").
type VersionRange struct {
	Lo, Hi Version
	Exact  bool
}

// ExactVersion returns a range pinning exactly v.
func ExactVersion(v Version) VersionRange {
	return VersionRange{Lo: v, Hi: v, Exact: true}
}

// IsAny reports whether the range places no constraint at all.
func (r VersionRange) IsAny() bool { return r.Lo == "" && r.Hi == "" && !r.Exact }

// IsExact reports whether the range pins a single version.
func (r VersionRange) IsExact() bool { return r.Exact }

// Contains reports whether version v satisfies the range.
func (r VersionRange) Contains(v Version) bool {
	if r.IsAny() {
		return true
	}
	if r.Exact {
		return r.Lo == v || r.Lo.IsPrefixOf(v)
	}
	if r.Lo != "" && v.Compare(r.Lo) < 0 {
		// A version like 9.2.0 should satisfy lower bound 9.2 even
		// though "9.2" < "9.2.0" would hold componentwise; prefix
		// matches count as within-bound.
		if !r.Lo.IsPrefixOf(v) {
			return false
		}
	}
	if r.Hi != "" && v.Compare(r.Hi) > 0 {
		if !r.Hi.IsPrefixOf(v) {
			return false
		}
	}
	return true
}

// Intersect merges two ranges, returning the tightest range implied by
// both and false if they are incompatible.
func (r VersionRange) Intersect(s VersionRange) (VersionRange, bool) {
	if r.IsAny() {
		return s, true
	}
	if s.IsAny() {
		return r, true
	}
	if r.Exact && s.Exact {
		switch {
		case r.Lo == s.Lo:
			return r, true
		case r.Lo.IsPrefixOf(s.Lo):
			return s, true
		case s.Lo.IsPrefixOf(r.Lo):
			return r, true
		default:
			return VersionRange{}, false
		}
	}
	if r.Exact {
		if s.Contains(r.Lo) {
			return r, true
		}
		return VersionRange{}, false
	}
	if s.Exact {
		if r.Contains(s.Lo) {
			return s, true
		}
		return VersionRange{}, false
	}
	out := VersionRange{Lo: maxVersion(r.Lo, s.Lo), Hi: minVersion(r.Hi, s.Hi)}
	if out.Lo != "" && out.Hi != "" && out.Lo.Compare(out.Hi) > 0 && !out.Lo.IsPrefixOf(out.Hi) {
		return VersionRange{}, false
	}
	return out, true
}

func maxVersion(a, b Version) Version {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	if a.Compare(b) >= 0 {
		return a
	}
	return b
}

func minVersion(a, b Version) Version {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	if a.Compare(b) <= 0 {
		return a
	}
	return b
}

// String renders the range in spec syntax without the leading '@'.
func (r VersionRange) String() string {
	switch {
	case r.IsAny():
		return ""
	case r.Exact:
		return string(r.Lo)
	case r.Lo == r.Hi:
		return fmt.Sprintf("%s:%s", r.Lo, r.Hi)
	case r.Lo == "":
		return ":" + string(r.Hi)
	case r.Hi == "":
		return string(r.Lo) + ":"
	default:
		return fmt.Sprintf("%s:%s", r.Lo, r.Hi)
	}
}

// ParseVersionRange parses the text after an '@' sign: "1.2", "1.2:1.9",
// ":2.0", "1.2:".
func ParseVersionRange(s string) (VersionRange, error) {
	if s == "" {
		return VersionRange{}, fmt.Errorf("spec: empty version constraint after '@'")
	}
	if !strings.Contains(s, ":") {
		if err := validVersion(s); err != nil {
			return VersionRange{}, err
		}
		return ExactVersion(Version(s)), nil
	}
	lo, hi, _ := strings.Cut(s, ":")
	if strings.Contains(hi, ":") {
		return VersionRange{}, fmt.Errorf("spec: malformed version range %q", s)
	}
	for _, p := range []string{lo, hi} {
		if p == "" {
			continue
		}
		if err := validVersion(p); err != nil {
			return VersionRange{}, err
		}
	}
	if lo != "" && hi != "" && Version(lo).Compare(Version(hi)) > 0 {
		return VersionRange{}, fmt.Errorf("spec: inverted version range %q", s)
	}
	return VersionRange{Lo: Version(lo), Hi: Version(hi)}, nil
}

func validVersion(s string) error {
	if s == "" {
		return fmt.Errorf("spec: empty version")
	}
	for _, part := range strings.Split(s, ".") {
		if part == "" {
			return fmt.Errorf("spec: malformed version %q", s)
		}
		for _, r := range part {
			if !isVersionRune(r) {
				return fmt.Errorf("spec: invalid character %q in version %q", r, s)
			}
		}
	}
	return nil
}

func isVersionRune(r rune) bool {
	return r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '-' || r == '_'
}
