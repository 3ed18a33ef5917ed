//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package store

import "os"

const (
	lockShared = iota
	lockExclusive
)

// flock is a no-op where flock(2) is unavailable: one process per store
// directory is then the caller's responsibility.
func flock(*os.File, int) error { return nil }
