package vindex

import (
	"fmt"

	"knnjoin/internal/nnheap"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

// KNNBatch answers one kNN query per element of qs with a shared k,
// preserving order. It is a thin wrapper over KNNBatchWithStats.
func (ix *Index) KNNBatch(qs []vector.Point, k int) [][]nnheap.Candidate {
	ks := make([]int, len(qs))
	for i := range ks {
		ks[i] = k
	}
	res, _ := ix.KNNBatchWithStats(qs, ks)
	return res
}

// KNNBatchWithStats answers len(qs) independent kNN queries together,
// in round lockstep: in round t every live query visits the t-th
// partition of its OWN ascending pivot-distance order, and the queries
// that land on the same partition in the same round share one
// query-batched kernel sweep (vector.NearestKBatchRanges), so each
// cache-sized panel of the partition is loaded once per group instead
// of once per query. Each query's partition visit order, per-partition
// θ evolution, pruning decisions, and Theorem-2 windows are exactly
// those of a sequential KNNWithStats call, so results[i] and stats[i]
// match ix.KNNWithStats(qs[i], ks[i]) — the lockstep only changes the
// interleaving across queries, never the work of one query.
//
// Like every query method it performs no writes to the Index, so
// concurrent batches (and mixed batch/single calls) on one shared
// Index are safe.
func (ix *Index) KNNBatchWithStats(qs []vector.Point, ks []int) ([][]nnheap.Candidate, []Stats) {
	if len(qs) != len(ks) {
		panic(fmt.Sprintf("vindex: KNNBatchWithStats: %d queries, %d ks", len(qs), len(ks)))
	}
	nq := len(qs)
	results := make([][]nnheap.Candidate, nq)
	stats := make([]Stats, nq)
	if nq == 0 {
		return results, stats
	}
	numPart := ix.pp.NumPartitions()

	// Per-query state: the StartKNN each KNNWithStats call begins with.
	heaps := make([]*nnheap.KHeap, nq)
	walks := make([]voronoi.Walk, nq)
	orders := make([][]int, nq)
	gaps := make([][]float64, nq)
	live := make([]int, 0, nq) // queries with k ≥ 1
	for i, q := range qs {
		if ks[i] <= 0 {
			continue
		}
		live = append(live, i)
		walks[i], orders[i], gaps[i] = ix.StartKNN(q, ks[i], &stats[i].DistComputations)
		heaps[i] = nnheap.NewKHeapAmong(ks[i], ix.size)
	}

	// Round lockstep. byPart groups this round's queries by the
	// partition they visit; group slices are reused across rounds.
	byPart := make([][]int, numPart)
	batchQ := make([]vector.Point, 0, nq)
	batchH := make([]*nnheap.KHeap, 0, nq)
	batchIdx := make([]int, 0, nq)
	lows := make([]int, 0, nq)
	highs := make([]int, 0, nq)
	touched := make([]int, 0, nq)
	var sc vector.Scratch
	for t := 0; t < numPart; t++ {
		touched = touched[:0]
		for _, i := range live {
			j := orders[i][t]
			if len(byPart[j]) == 0 {
				touched = append(touched, j)
			}
			byPart[j] = append(byPart[j], i)
		}
		for _, j := range touched {
			members := byPart[j]
			byPart[j] = members[:0]
			batchQ, batchH, batchIdx = batchQ[:0], batchH[:0], batchIdx[:0]
			lows, highs = lows[:0], highs[:0]
			for _, i := range members {
				from, to, ok := ix.window(&walks[i], j, gaps[i][j], &stats[i])
				if !ok {
					continue
				}
				batchQ = append(batchQ, qs[i])
				batchH = append(batchH, heaps[i])
				batchIdx = append(batchIdx, i)
				lows = append(lows, from)
				highs = append(highs, to)
			}
			if len(batchQ) == 0 {
				continue
			}
			ix.blocks[j].NearestKBatchRanges(batchQ, lows, highs, ix.opts.Metric, batchH, &sc)
			for _, i := range batchIdx {
				walks[i].Tighten(heaps[i])
			}
		}
	}
	for _, i := range live {
		results[i] = ix.FinishKNN(heaps[i])
	}
	return results, stats
}
