package vindex

// The remaining query-path roots, declared so the root list is complete;
// each is pure.

func (ix *Index) KNN(q []float64, k int) int                     { return k }
func (ix *Index) Range(q []float64, radius float64) int          { return len(q) }
func (ix *Index) KNNBatch(qs [][]float64, k int) int             { return k }
func (ix *Index) KNNBatchWithStats(qs [][]float64, ks []int) int { return len(ks) }
func (ix *Index) AssignQuery(q []float64) int                    { return 0 }
func (ix *Index) Walk(own int) int                               { return own }
func (ix *Index) KNNStep(j int, st *Stats)                       { st.DistComputations++ }
func (ix *Index) FinishKNN() []float64                           { return nil }
func (ix *Index) RangeWindows(q []float64) int                   { return len(q) }
func (ix *Index) RangeStep(j int) int                            { return j }
func (ix *Index) PartitionLen(j int) int                         { return ix.sum.Scans }
func (ix *Index) Pivots() [][]float64                            { return nil }
func (ix *Index) Metric() int                                    { return 0 }
func (ix *Index) Len() int                                       { return 0 }
func (ix *Index) Dim() int                                       { return 0 }
func (ix *Index) NumPartitions() int                             { return 0 }
