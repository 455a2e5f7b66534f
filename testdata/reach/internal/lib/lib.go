// Package lib plants one declaration of each kind the reachability scan
// must tell apart.
package lib

// Dead is called by nothing.
func Dead() {}

// OnlyTests is called only from lib_test.go.
func OnlyTests() {}

// Viaer is what Use calls through.
type Viaer interface{ Via() }

// Use reaches T.Via only through an interface call.
func Use(v Viaer) { v.Via() }

// T is handed to Use by the program.
type T struct{}

// Via is reached only through the interface call in Use.
func (T) Via() {}

// String is called by fmt, never by name.
func (T) String() string { return "T" }

// BenchOnly is called only from a bench/ package.
func BenchOnly() {}
