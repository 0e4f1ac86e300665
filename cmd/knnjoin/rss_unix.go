//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// peakRSS returns the peak resident set size in bytes, as getrusage
// reports it: this process's (RUSAGE_SELF), or with children the largest
// of its terminated and reaped child processes (RUSAGE_CHILDREN).
func peakRSS(children bool) (int64, bool) {
	who := syscall.RUSAGE_SELF
	if children {
		who = syscall.RUSAGE_CHILDREN
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, false
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return int64(ru.Maxrss), true // bytes there, KiB elsewhere
	}
	return int64(ru.Maxrss) << 10, true
}
