//go:build !unix

package main

// peakRSS is unavailable off unix; -v omits its process lines.
func peakRSS(children bool) (int64, bool) { return 0, false }
