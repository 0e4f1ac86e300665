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
// lowers θ to the heap's k-th best. Callers that may skip |x,p_j| first
// ask GapPrunes, which decides from the pivot gap alone, and stop the
// walk at the first cell past GapLimit. The join reducers, the query
// index, the shard router and the planner's replay all run this one
// walk, so a change to a rule lands at one site. The caller charges the
// distances it computes: each site keeps its own accounting.
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

// The gap-only tests. For x in cell i with d_i = |x,p_i| and pivot gap
// g = |p_i,p_j|, the triangle inequality gives g − d_i ≤ |x,p_j| ≤
// g + d_i, so the rules of Decide can be read from the two numbers a
// walk already holds, before |x,p_j| is computed:
//   - Corollary 1: d(x,H_ij) ≥ g/2 − d_i for j ≠ i. Under L2
//     HyperplaneDist is increasing in its first argument, and
//     (d_j² − d_i²)/2g ≥ ((g − d_i)² − d_i²)/2g = g/2 − d_i; under L1
//     and L∞ (d_j − d_i)/2 ≥ g/2 − d_i directly. Every cell with
//     g > 2(d_i + θ) is pruned.
//   - Theorem 2: cell j's window is empty when g − d_i − θ > U_j or
//     g + d_i + θ < L_j.
//
// The tests are one-sided: each comparison must clear a relative slack
// of gapSlack of the magnitudes involved plus an absolute gapFloor, so
// rounding in the computed distances can only make a test decline,
// never prune a cell the exact test would scan. Computed distances
// carry a relative error below (dim+6)·2⁻⁵³ (cutSlack's argument), which
// 1e-9 covers up to about 10⁶ dimensions; an L2 distance whose squares
// underflowed is off by at most √dim·2⁻⁵³⁷ absolutely, which the floor
// covers. A gap that overflowed to +Inf bounds nothing and never prunes.
const (
	gapSlack = 1e-9
	gapFloor = 0x1p-500
)

// beyond reports whether a exceeds b by more than rounding in either can
// explain. It is false whenever a or b is +Inf or NaN.
func beyond(a, b float64) bool { return a-b > gapSlack*(a+b)+gapFloor }

// GapLimit is Corollary 1 in gap space: every cell j ≠ i whose pivot
// gap |p_i,p_j| is PastGapLimit of it is pruned at the current θ,
// whatever |x,p_j| computes to. It is 2(|x,p_i| + θ) plus the slack, and
// +Inf when NoHyperplane is set. VisitOrder ascends by gap, so a caller
// walking in that order may stop at the first cell past the largest
// GapLimit of its rows: every later cell is past it too.
func (w *Walk) GapLimit() float64 {
	if w.NoHyperplane {
		return math.Inf(1)
	}
	return 2*(w.OwnDist+w.Theta)*(1+gapSlack) + gapFloor
}

// BatchGapLimit is the largest GapLimit of a batch of walks that share
// one cell and one visit order: a cell past it is pruned for every row,
// and so is every cell after it in gap order.
func BatchGapLimit(walks []Walk) float64 {
	limit := math.Inf(-1)
	for i := range walks {
		limit = max(limit, walks[i].GapLimit())
	}
	return limit
}

// PastGapLimit reports whether a cell at pivot gap gap lies past limit,
// a GapLimit or the largest of a batch's. An overflowed gap (+Inf) is
// never past: the bound cannot be read from it.
func PastGapLimit(gap, limit float64) bool {
	return gap > limit && gap <= math.MaxFloat64
}

// GapPrunes reports, from the pivot gap alone, that Decide(j, |x,p_j|)
// would return Skip or Prune at the current θ: the caller need not
// compute |x,p_j|. It may decline a cell Decide prunes, never the other
// way round.
func (w *Walk) GapPrunes(j int) bool {
	if w.Empty(j) {
		return true
	}
	g := w.ownGaps[j]
	if j != w.Own && PastGapLimit(g, w.GapLimit()) {
		return true
	}
	if w.NoWindow {
		return false
	}
	s, d := w.sum.S[j], w.OwnDist
	return beyond(g, d+w.Theta+s.U) || beyond(s.L, g+d+w.Theta)
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
// scan stops at its first bound that cannot improve the heap. among
// bounds how many distances the lists hold in all and sizes the heap, so
// a k beyond it costs no more memory than the lists. KNNBound returns
// +Inf when fewer than k bounds exist (the paper assumes k ≤ |S|; +Inf
// keeps callers safe rather than wrong).
func KNNBound(k, among int, u float64, n int, part func(j int) (gap float64, kd []float64)) float64 {
	pq := nnheap.NewKHeapAmong(k, among)
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
