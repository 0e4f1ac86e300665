package vindex

import (
	"math"

	"knnjoin/internal/codec"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

// This file exports the query walks of KNNWithStats and RangeWithStats
// as composable pieces, so the sharded serving tier (internal/shard) can
// replay the EXACT single-node query — same visit order, same pruning
// decisions, same θ evolution, same Stats — while delegating only the
// block scans to remote shard processes. The decisions themselves are
// voronoi.Walk's, the one walk the join reducers run too, and the query
// methods are compositions of these pieces, which is what makes
// "sharded responses are byte-identical to single-node responses" a
// structural property instead of a testing aspiration: both paths run
// this code, the router merely crosses a process boundary between steps.

// AssignQuery places q in its Voronoi cell: the nearest pivot's index
// and the distance to it. The |P| object–pivot probes accrue into
// distCount when non-nil.
func (ix *Index) AssignQuery(q vector.Point, distCount *int64) (part int, dist float64) {
	return ix.pp.Assign(q, distCount)
}

// Walk returns the pruning walk of a query in cell own, at distance
// ownDist from its pivot, with bound theta.
func (ix *Index) Walk(own int, ownDist, theta float64) voronoi.Walk {
	return voronoi.NewWalk(ix.pp, ix.sum).Start(own, ownDist, theta)
}

// StartKNN begins the kNN walk of q. It assigns q to its cell, takes the
// Algorithm-1 starting bound — voronoi.KNNBound over the summary's
// per-partition kNN lists, with the query's "partition" the degenerate
// cell {q} (U = 0) — and returns the walk with the visit order (every
// partition by ascending |q,p_j|, ties by index) and gaps[j] = |q,p_j|.
// The distances accrue into distCount: |P| for the assignment, one per
// partition with a kNN list for the bound, and the |P|−1 gaps. Each
// |q,p_j| is computed once: the bound reads the gaps, and q's own gap is
// the assignment's distance, which equals Metric.Dist bit for bit. The
// kNN lists hold at most Len entries, so a bound for more than Len
// neighbours never fills and is +Inf, and its heap is sized by Len: a k
// far above Len costs no more memory.
func (ix *Index) StartKNN(q vector.Point, k int, distCount *int64) (w voronoi.Walk, order []int, gaps []float64) {
	qPart, qDist := ix.AssignQuery(q, distCount)
	gaps = make([]float64, ix.pp.NumPartitions())
	for j := range gaps {
		if j == qPart {
			gaps[j] = qDist
		} else {
			gaps[j] = ix.opts.Metric.Dist(q, ix.pp.Pivots[j])
			*distCount++
		}
	}
	theta := voronoi.KNNBound(k, ix.size, 0, len(ix.sum.S), func(j int) (float64, []float64) {
		kd := ix.sum.S[j].KDists
		if len(kd) == 0 {
			return 0, nil
		}
		*distCount++
		return gaps[j], kd
	})
	order = make([]int, len(gaps))
	voronoi.VisitOrder(order, gaps)
	return ix.Walk(qPart, qDist, theta), order, gaps
}

// window is one step of a kNN walk on partition j, whose pivot is at
// distance gap from the query: the walk's decision, its Stats, and for a
// scan the block rows to examine, charged as distance computations.
func (ix *Index) window(w *voronoi.Walk, j int, gap float64, st *Stats) (from, to int, scan bool) {
	lo, hi, d := w.Decide(j, gap)
	switch d {
	case voronoi.Prune:
		st.PartitionsPruned++
	case voronoi.Scan:
		st.PartitionsScanned++
		blk := ix.blocks[j]
		from, to = blk.PivotDistWindow(0, blk.Len(), lo, hi)
		st.DistComputations += int64(to - from)
		return from, to, true
	}
	return 0, 0, false
}

// KNNStep executes partition j's step of the walk: the decision, its
// Stats accounting, and — for a scan — the windowed kernel scan plus θ
// tightening, which leaves the next step's θ in w. The index must hold
// partition j's objects (the full index, or a load of OnlyCells naming
// cell j).
func (ix *Index) KNNStep(w *voronoi.Walk, j int, q vector.Point, gap float64, heap *nnheap.KHeap, sc *vector.Scratch, st *Stats) {
	if from, to, ok := ix.window(w, j, gap, st); ok {
		ix.blocks[j].NearestKRangeScratch(q, from, to, ix.opts.Metric, heap, sc)
		w.Tighten(heap)
	}
}

// FinishKNN drains the walk's heap into the final ascending result,
// converting squared distances back to true distances under L2 (the
// kernels' native space).
func (ix *Index) FinishKNN(heap *nnheap.KHeap) []nnheap.Candidate {
	res := heap.Sorted()
	if ix.opts.Metric == vector.L2 {
		for i := range res {
			res[i].Dist = math.Sqrt(res[i].Dist) //lint:allow sqrtfree: the emit site — query responses carry true L2 distances
		}
	}
	return res
}

// Window is one partition a range query must scan: the rows of
// partition J whose pivot distance lies in [Lo, Hi].
type Window struct {
	J      int
	Lo, Hi float64
}

// RangeWindows runs the range query's walk: θ is the fixed radius, so
// the partitions are visited in index order and nothing is tightened. It
// returns every partition to scan with its Theorem-2 window. The
// assignment (|P|) and the pivot distance of every non-empty partition
// other than q's own accrue into distCount.
func (ix *Index) RangeWindows(q vector.Point, radius float64, distCount *int64) []Window {
	qPart, qDist := ix.AssignQuery(q, distCount)
	w := ix.Walk(qPart, qDist, radius)
	var out []Window
	for j := range ix.sum.S {
		if w.Empty(j) {
			continue
		}
		gap := qDist
		if j != qPart {
			gap = ix.opts.Metric.Dist(q, ix.pp.Pivots[j])
			*distCount++
		}
		if lo, hi, d := w.Decide(j, gap); d == voronoi.Scan {
			out = append(out, Window{J: j, Lo: lo, Hi: hi})
		}
	}
	return out
}

// RangeStep scans one window RangeWindows produced: it appends to out
// every row of partition j with pivot distance in [lo, hi] that lies
// within radius of q, and returns out with the number of rows examined
// (the query's distance-computation charge).
func (ix *Index) RangeStep(j int, q vector.Point, lo, hi, radius float64, out []codec.Object) ([]codec.Object, int) {
	blk := ix.blocks[j]
	from, to := blk.PivotDistWindow(0, blk.Len(), lo, hi)
	for x := from; x < to; x++ {
		if blk.DistTo(x, q, ix.opts.Metric) <= radius {
			out = append(out, codec.Object{ID: blk.IDs[x], Point: blk.At(x).Clone()})
		}
	}
	return out, to - from
}

// PartitionLen returns the number of objects partition j holds
// according to the summary — on a load of OnlyCells, zero for the cells
// it does not name.
func (ix *Index) PartitionLen(j int) int { return ix.sum.S[j].Count }

// Pivots returns the partitioner's pivot points. The slice is the
// index's own storage: callers must treat it as read-only.
func (ix *Index) Pivots() []vector.Point { return ix.pp.Pivots }

// Metric returns the distance metric the index was built with.
func (ix *Index) Metric() vector.Metric { return ix.opts.Metric }
