//go:build race

package service

// The race detector makes sync.Pool drop items at random, so the count
// gates that rely on buffer reuse do not hold under it.
func init() { raceEnabled = true }
