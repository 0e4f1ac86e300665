//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// peakRSS returns this process's peak resident set size in bytes, as
// getrusage(RUSAGE_SELF) reports it.
func peakRSS() (int64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return int64(ru.Maxrss), true // bytes there, KiB elsewhere
	}
	return int64(ru.Maxrss) << 10, true
}
