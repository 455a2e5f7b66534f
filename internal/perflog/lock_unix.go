//go:build unix

package perflog

import (
	"os"
	"syscall"
)

// lockFile runs fn holding an exclusive flock(2) on f. Every appender of
// a perflog holds it across its write, and openLog across its torn-tail
// check, so that check never reads a size inside another appender's
// line, in this process or another.
func lockFile(f *os.File, fn func() error) error {
	fd := int(f.Fd())
	if err := flock(fd, syscall.LOCK_EX); err != nil {
		return err
	}
	err := fn()
	if uerr := flock(fd, syscall.LOCK_UN); err == nil {
		err = uerr
	}
	return err
}

func flock(fd, how int) error {
	for {
		if err := syscall.Flock(fd, how); err != syscall.EINTR {
			return err
		}
	}
}
