// Package load is a benchmark package: every declaration is a root.
package load

import "fixture/internal/lib"

func run() { lib.BenchOnly() }
