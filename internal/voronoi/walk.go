package voronoi

import (
	"cmp"
	"math"
	"slices"

	"knnjoin/internal/nnheap"
	"knnjoin/internal/vector"
)

// Walk is Algorithm 3's pruning walk (lines 14–24) for one query row x:
// its own cell i, |x,p_i| and the running bound θ. For every S-partition
// j, visited in VisitOrder, the caller computes |x,p_j| and asks Decide
// whether to skip the cell, prune it (Corollary 1 or an empty Theorem-2
// window) or scan a pivot-distance window of it; after a scan, Tighten
// lowers θ to the heap's k-th best. The join reducers, the query index,
// the shard router and the planner's replay all run this one walk, so a
// change to a rule lands at one site. The caller charges the distances
// it computes: each site keeps its own accounting.
type Walk struct {
	pp      *Partitioner
	sum     *Summary
	ownGaps []float64 // |p_i,p_j| for every j

	// NoHyperplane and NoWindow switch Corollary 1 and Theorem 2 off:
	// the ablations of pgbj.Options. A walk without the window scans
	// every row of a cell it does not prune.
	NoHyperplane, NoWindow bool

	Own     int     // i, the row's Voronoi cell
	OwnDist float64 // |x,p_i|
	Theta   float64 // θ, the bound on the row's k-th neighbour distance
}

// NewWalk returns a walk over pp's cells with the TS rows of sum, to be
// positioned on a row with Start.
func NewWalk(pp *Partitioner, sum *Summary) Walk {
	return Walk{pp: pp, sum: sum}
}

// Start returns w positioned on a row of cell own, at distance ownDist
// from its pivot, with starting bound theta.
func (w Walk) Start(own int, ownDist, theta float64) Walk {
	w.ownGaps = w.pp.pivotDist[own]
	w.Own, w.OwnDist, w.Theta = own, ownDist, theta
	return w
}

// Decision is what a walk does with one S-partition.
type Decision int

// The decisions. Skip is an empty cell: there is nothing to prune or
// count. Prune means Corollary 1 or an empty Theorem-2 window rules the
// whole cell out. Scan means the cell's rows whose pivot distance lies in
// [lo, hi] must be scanned.
const (
	Skip Decision = iota
	Prune
	Scan
)

// Empty reports whether cell j holds no object of S, for callers that
// skip such cells before computing |x,p_j|.
func (w *Walk) Empty(j int) bool { return w.sum.S[j].Count == 0 }

// Decide makes the walk's decision for cell j at the current θ, given
// dist = |x,p_j|.
func (w *Walk) Decide(j int, dist float64) (lo, hi float64, d Decision) {
	if w.Empty(j) {
		return 0, 0, Skip
	}
	if !w.NoHyperplane && j != w.Own && HyperplaneDist(dist, w.OwnDist, w.ownGaps[j], w.pp.Metric) > w.Theta {
		return 0, 0, Prune
	}
	if w.NoWindow {
		return math.Inf(-1), math.Inf(1), Scan
	}
	lo, hi, ok := Theorem2Window(w.sum.S[j], dist, w.Theta)
	if !ok {
		return 0, 0, Prune
	}
	return lo, hi, Scan
}

// Tighten is line 24: once h holds k candidates, θ drops to the k-th
// best if that is smaller. h holds the kernels' distances — squared
// under L2 — and θ stays in true units for the bounds. A window may
// admit candidates beyond the starting θ, so θ never grows.
func (w *Walk) Tighten(h *nnheap.KHeap) {
	if !h.Full() {
		return
	}
	t := h.Top().Dist
	if w.pp.Metric == vector.L2 {
		t = math.Sqrt(t) //lint:allow sqrtfree: one sqrt per scanned cell turns the squared heap bound into the true-units θ the bounds compare
	}
	if t < w.Theta {
		w.Theta = t
	}
}

// VisitOrder fills order with 0…len(order)−1 in Algorithm 3's line-14
// visit order: ascending key, ties by index. key[j] is cell j's distance
// from the row — |p_i,p_j| for every row of a reducer's R-partition, or
// |q,p_j| for a query — so near cells come first and tighten θ early.
// Equal keys keep index order.
func VisitOrder(order []int, key []float64) {
	for j := range order {
		order[j] = j
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(key[a], key[b]); c != 0 {
			return c
		}
		return a - b
	})
}

// KNNBound is Algorithm 1: the k-th smallest upper bound
// u + |p_i,p_j| + d (Theorem 3) over cells j < n, where u is U of the
// bounded set, part(j) returns the gap |p_i,p_j| and cell j's ascending
// pivot distances d — its TS KDists, or the first rows of a sorted cell —
// and a cell with none contributes nothing. The lists ascend, so a cell's
// scan stops at its first bound that cannot improve the heap. KNNBound
// returns +Inf when fewer than k bounds exist (the paper assumes
// k ≤ |S|; +Inf keeps callers safe rather than wrong).
func KNNBound(k int, u float64, n int, part func(j int) (gap float64, kd []float64)) float64 {
	pq := nnheap.NewKHeap(k)
	for j := 0; j < n; j++ {
		gap, kd := part(j)
		for _, d := range kd {
			ub := UpperBound(u, gap, d)
			if pq.Full() && ub >= pq.Top().Dist {
				break // no later entry of this cell can improve θ
			}
			pq.Push(nnheap.Candidate{Dist: ub})
		}
	}
	if !pq.Full() {
		return math.Inf(1)
	}
	return pq.Top().Dist
}
