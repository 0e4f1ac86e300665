// Package vindex is a query path whose entry points were renamed after
// the root list was written: the stale roots are reported instead of
// being skipped, since the renamed methods would go unchecked.
package vindex // want "query-path roots .*StartKNN.* are not methods of Index"

// Index is the shared structure concurrent queries hit.
type Index struct{ scans int }

// KNNWithStats is still a root, and pure.
func (ix *Index) KNNWithStats(q []float64, k int) int { return k }

// StartingBound is the old name of StartKNN; nothing marks it a root.
func (ix *Index) StartingBound(q []float64, k int) float64 {
	ix.scans++
	return 0
}
