// Package fom handles Figures of Merit: extracting them from benchmark
// output with regular expressions (as ReFrame does, paper §2.4), checking
// sanity patterns, and turning raw FOMs into the efficiency metrics
// Principle 1 calls for — including Pennycook's performance-portability
// metric that motivates the whole methodology.
package fom

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Value is one extracted Figure of Merit.
type Value struct {
	Name  string
	Value float64
	Unit  string
}

// String renders "name=value unit".
func (v Value) String() string {
	if v.Unit == "" {
		return fmt.Sprintf("%s=%g", v.Name, v.Value)
	}
	return fmt.Sprintf("%s=%g %s", v.Name, v.Value, v.Unit)
}

// Pattern extracts one named FOM from benchmark output. Regex must have
// at least one capture group; Group selects which one holds the number
// (default 1).
type Pattern struct {
	Name  string
	Unit  string
	Regex *regexp.Regexp
	Group int
	// Scale multiplies the extracted number (0 means 1), for unit
	// conversions such as DOF/s → MDOF/s at extraction time.
	Scale float64
	// All, when true, extracts every match and reports the Reduce-d
	// value; otherwise the first match wins.
	All    bool
	Reduce func([]float64) float64 // used with All; default: max
}

// MustPattern builds a Pattern from a regex source, panicking on bad
// regexes (patterns are static benchmark definitions).
func MustPattern(name, unit, regex string) Pattern {
	return Pattern{Name: name, Unit: unit, Regex: regexp.MustCompile(regex)}
}

// Extract applies the patterns to output, returning one Value per
// pattern. A pattern that does not match is an error: a benchmark whose
// FOM is missing did not run correctly.
func Extract(output string, patterns []Pattern) (map[string]Value, error) {
	out := make(map[string]Value, len(patterns))
	for _, p := range patterns {
		if p.Regex == nil {
			return nil, fmt.Errorf("fom: pattern %q has no regex", p.Name)
		}
		group := p.Group
		if group == 0 {
			group = 1
		}
		if group >= p.Regex.NumSubexp()+1 {
			return nil, fmt.Errorf("fom: pattern %q selects group %d of %d", p.Name, group, p.Regex.NumSubexp())
		}
		var nums []float64
		for _, m := range p.Regex.FindAllStringSubmatch(output, -1) {
			v, err := strconv.ParseFloat(strings.TrimSpace(m[group]), 64)
			if err != nil {
				return nil, fmt.Errorf("fom: pattern %q matched non-numeric %q", p.Name, m[group])
			}
			nums = append(nums, v)
			if !p.All {
				break
			}
		}
		if len(nums) == 0 {
			return nil, fmt.Errorf("fom: pattern %q did not match benchmark output", p.Name)
		}
		val := nums[0]
		if p.All {
			reduce := p.Reduce
			if reduce == nil {
				reduce = Max
			}
			val = reduce(nums)
		}
		if p.Scale != 0 {
			val *= p.Scale
		}
		out[p.Name] = Value{Name: p.Name, Value: val, Unit: p.Unit}
	}
	return out, nil
}

// Max is a Reduce function returning the maximum.
func Max(xs []float64) float64 {
	best := xs[0]
	for _, x := range xs[1:] {
		if x > best {
			best = x
		}
	}
	return best
}

// Sanity checks that benchmark output indicates a valid run (ReFrame's
// sanity patterns): every Require regex must match and every Forbid regex
// must not.
type Sanity struct {
	Require []*regexp.Regexp
	Forbid  []*regexp.Regexp
}

// Check returns nil when the output passes all sanity conditions.
func (s Sanity) Check(output string) error {
	for _, re := range s.Require {
		if !re.MatchString(output) {
			return fmt.Errorf("fom: sanity failed: output does not match %q", re)
		}
	}
	for _, re := range s.Forbid {
		if re.MatchString(output) {
			return fmt.Errorf("fom: sanity failed: output matches forbidden %q", re)
		}
	}
	return nil
}

// Ratio is the paper's Equation 1, E = VAR / ORIG: the gain of a variant
// over the original implementation.
func Ratio(variant, original float64) float64 {
	if original <= 0 {
		return 0
	}
	return variant / original
}

// PerfPortability is Pennycook's performance-portability metric: the
// harmonic mean of an application's efficiencies across a platform set H,
// defined to be 0 when the application fails to run anywhere in H.
//
//	PP(a, p, H) = |H| / Σ_{i∈H} 1/e_i(a,p)   if a runs on all i ∈ H
//	            = 0                          otherwise
func PerfPortability(efficiencies []float64) float64 {
	if len(efficiencies) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range efficiencies {
		if e <= 0 {
			return 0 // fails (or is unsupported) on some platform
		}
		sum += 1 / e
	}
	return float64(len(efficiencies)) / sum
}

// Table renders FOM values as an aligned two-column text table, sorted by
// name, for human-readable reports.
func Table(foms map[string]Value) string {
	names := make([]string, 0, len(foms))
	width := 0
	for n := range foms {
		names = append(names, n)
		if len(n) > width {
			width = len(n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		v := foms[n]
		fmt.Fprintf(&b, "%-*s  %12.4f %s\n", width, n, v.Value, v.Unit)
	}
	return b.String()
}
