//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package store

import (
	"os"
	"syscall"
)

const (
	lockShared    = syscall.LOCK_SH
	lockExclusive = syscall.LOCK_EX
)

// flock takes an advisory lock on f, shared between processes; it is
// released when f is closed.
func flock(f *os.File, how int) error {
	for {
		err := syscall.Flock(int(f.Fd()), how)
		if err != syscall.EINTR {
			return err
		}
	}
}
