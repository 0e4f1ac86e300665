// Package vindex mirrors the real query path for the querypure
// analyzer: an Index queried concurrently, whose query-path methods
// must keep their accounting in returned values.
package vindex

// Stats is per-query accounting, returned not stored.
type Stats struct{ DistComputations int64 }

type summary struct{ Scans int }

// Index is the shared structure concurrent queries hit.
type Index struct {
	DistCount int64
	sum       *summary
	boundK    int
}

// KNNWithStats is a query-path root that mutates the receiver: the
// PR-4 race, re-seeded.
func (ix *Index) KNNWithStats(q []float64, k int) Stats {
	ix.DistCount++ // want "mutates receiver counter"
	return Stats{DistComputations: 1}
}

// RangeWithStats stays pure: accounting lives in the return value.
func (ix *Index) RangeWithStats(q []float64, radius float64) Stats {
	var st Stats
	st.DistComputations += int64(len(q))
	return st
}

// StartKNN reaches a helper that writes through an alias.
func (ix *Index) StartKNN(q []float64, k int) float64 {
	ix.bump()
	return 0
}

// bump is unexported but reachable from a query-path root, and writes
// shared state through a one-hop alias of a receiver field.
func (ix *Index) bump() {
	s := ix.sum
	s.Scans++ // want "mutates receiver counter"
}

// SetBoundK is not on the query path; configuration writes are fine.
func (ix *Index) SetBoundK(k int) { ix.boundK = k }
