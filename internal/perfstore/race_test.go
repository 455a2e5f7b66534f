//go:build race

package perfstore

// The race detector adds allocations of its own, so the count gates do
// not hold under it.
func init() { raceEnabled = true }
