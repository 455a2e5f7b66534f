//go:build !unix

package perflog

import "os"

// lockFile runs fn. Without flock(2) appenders are not serialized: a
// torn-tail check can then race another appender's write (see openLog).
func lockFile(f *os.File, fn func() error) error { return fn() }
