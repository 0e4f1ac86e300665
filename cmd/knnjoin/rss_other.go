//go:build !unix

package main

// peakRSS is unavailable off unix; -v omits its process line.
func peakRSS() (int64, bool) { return 0, false }
