//go:build race

package pgbj

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
