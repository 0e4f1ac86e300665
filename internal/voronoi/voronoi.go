// Package voronoi implements the Voronoi-diagram-based partitioning of
// §2.3 and §4 of the paper: nearest-pivot assignment, the per-partition
// summary tables TR and TS built by the first MapReduce job, and the
// distance bounds of Theorems 1–5 / Corollaries 1–2 that drive all pruning.
package voronoi

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"knnjoin/internal/codec"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/vector"
)

// Partitioner assigns objects to generalized Voronoi cells defined by a
// pivot set, and caches the pivot-pivot distance matrix every bound needs.
// It is immutable after NewPartitioner apart from the lazily built
// nearest-pivot lists, which are published atomically: any number of
// goroutines may share one Partitioner.
type Partitioner struct {
	Pivots []vector.Point
	Metric vector.Metric

	pivotDist [][]float64 // pivotDist[i][j] = |p_i, p_j|

	// What the pruned scan of AssignEvaluated reads (see assign.go).
	dim       int
	flat      []float64                     // the pivots, row-major
	landmarks []neighbour                   // ⌈√|P|/2⌉ evenly spaced pivot indexes, at distance 0
	near      []atomic.Pointer[[]neighbour] // per pivot, its nearest pivots; built on first use
}

// NewPartitioner builds a partitioner over the given pivots. It
// precomputes the |P|×|P| pivot distance matrix (the paper's mappers load
// the pivots into memory in the same way). The assignment scan's own
// tables cost a copy of the pivots here and nothing else up front.
func NewPartitioner(pivots []vector.Point, metric vector.Metric) *Partitioner {
	if len(pivots) == 0 {
		panic("voronoi: empty pivot set")
	}
	n := len(pivots)
	pd := make([][]float64, n)
	for i := range pd {
		pd[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := metric.Dist(pivots[i], pivots[j])
			pd[i][j], pd[j][i] = d, d
		}
	}
	p := &Partitioner{
		Pivots: pivots, Metric: metric, pivotDist: pd,
		dim:  pivots[0].Dim(),
		near: make([]atomic.Pointer[[]neighbour], n),
	}
	p.flat = make([]float64, 0, n*p.dim)
	for _, pv := range pivots {
		p.flat = append(p.flat, pv...)
	}
	l := int(math.Ceil(math.Sqrt(float64(n)) / 2)) //lint:allow sqrtfree: the landmark count, not a distance
	p.landmarks = make([]neighbour, l)
	for i := range p.landmarks {
		p.landmarks[i] = makeNeighbour(i*n/l, 0)
	}
	return p
}

// NumPartitions returns |P|.
func (p *Partitioner) NumPartitions() int { return len(p.Pivots) }

// PivotDist returns the cached distance |p_i, p_j|.
func (p *Partitioner) PivotDist(i, j int) float64 { return p.pivotDist[i][j] }

// RSummary is one row of table TR (Figure 3): statistics of one partition
// of R.
type RSummary struct {
	Count int     // number of objects in P_i^R
	L     float64 // min distance from an object of P_i^R to its pivot
	U     float64 // max distance from an object of P_i^R to its pivot
}

// SSummary is one row of table TS: statistics of one partition of S plus
// the distances from the pivot to its k nearest partition members
// (p_i.d_1 … p_i.d_k in the paper), kept in ascending order.
type SSummary struct {
	Count  int
	L, U   float64
	KDists []float64
}

// Summary holds both summary tables, the byproduct of MapReduce job 1 that
// the second job's mappers and reducers consume.
type Summary struct {
	K int
	R []RSummary
	S []SSummary
}

// SummaryBuilder accumulates summary rows incrementally; each map task
// feeds it locally and partial builders merge on the driver, mirroring how
// the paper collects statistics per input split and merges at job end.
type SummaryBuilder struct {
	k     int
	r     []RSummary
	s     []SSummary
	sHeap []*nnheap.KHeap // k smallest |s, pivot| per S-partition
	sSize int             // bounds the S objects of any one partition
}

// NewSummaryBuilder prepares a builder for numPartitions partitions and
// the given k: NewSummaryBuilderAmong(numPartitions, k, k).
func NewSummaryBuilder(numPartitions, k int) *SummaryBuilder {
	return NewSummaryBuilderAmong(numPartitions, k, k)
}

// NewSummaryBuilderAmong prepares a builder for numPartitions partitions
// and the given k whose S objects number at most sSize — counting every
// builder merged into it; |S| will do. sSize sizes the per-partition
// heaps, so a k beyond |S| costs no more memory than |S| does.
func NewSummaryBuilderAmong(numPartitions, k, sSize int) *SummaryBuilder {
	if numPartitions <= 0 || k <= 0 {
		panic("voronoi: NewSummaryBuilder needs positive numPartitions and k")
	}
	b := &SummaryBuilder{
		k:     k,
		sSize: sSize,
		r:     make([]RSummary, numPartitions),
		s:     make([]SSummary, numPartitions),
		sHeap: make([]*nnheap.KHeap, numPartitions),
	}
	for i := range b.r {
		b.r[i] = RSummary{L: math.Inf(1), U: math.Inf(-1)}
		b.s[i] = SSummary{L: math.Inf(1), U: math.Inf(-1)}
	}
	return b
}

// Add records one partitioned object.
func (b *SummaryBuilder) Add(t codec.Tagged) {
	i := int(t.Partition)
	switch t.Src {
	case codec.FromR:
		row := &b.r[i]
		row.Count++
		row.L = math.Min(row.L, t.PivotDist)
		row.U = math.Max(row.U, t.PivotDist)
	case codec.FromS:
		row := &b.s[i]
		row.Count++
		row.L = math.Min(row.L, t.PivotDist)
		row.U = math.Max(row.U, t.PivotDist)
		if b.sHeap[i] == nil {
			b.sHeap[i] = nnheap.NewKHeapAmong(b.k, b.sSize)
		}
		b.sHeap[i].Push(nnheap.Candidate{ID: t.ID, Dist: t.PivotDist})
	default:
		panic(fmt.Sprintf("voronoi: bad source %q", t.Src))
	}
}

// Merge folds another builder (same shape) into b.
func (b *SummaryBuilder) Merge(o *SummaryBuilder) {
	if len(b.r) != len(o.r) || b.k != o.k {
		panic("voronoi: merging incompatible summary builders")
	}
	for i := range b.r {
		b.r[i].Count += o.r[i].Count
		b.r[i].L = math.Min(b.r[i].L, o.r[i].L)
		b.r[i].U = math.Max(b.r[i].U, o.r[i].U)
		b.s[i].Count += o.s[i].Count
		b.s[i].L = math.Min(b.s[i].L, o.s[i].L)
		b.s[i].U = math.Max(b.s[i].U, o.s[i].U)
		if o.sHeap[i] != nil {
			if b.sHeap[i] == nil {
				b.sHeap[i] = nnheap.NewKHeapAmong(b.k, b.sSize)
			}
			for _, c := range o.sHeap[i].Sorted() {
				b.sHeap[i].Push(c)
			}
		}
	}
}

// Finalize freezes the builder into a Summary. Ascending KDists order is
// what lets Algorithm 1 early-exit (§4.3.1).
func (b *SummaryBuilder) Finalize() *Summary {
	sum := &Summary{K: b.k, R: append([]RSummary(nil), b.r...), S: append([]SSummary(nil), b.s...)}
	for i := range sum.S {
		if b.sHeap[i] == nil {
			continue
		}
		cands := b.sHeap[i].Sorted()
		ds := make([]float64, len(cands))
		for j, c := range cands {
			ds[j] = c.Dist
		}
		sum.S[i].KDists = ds
	}
	return sum
}

// HyperplaneDist implements Theorem 1: a lower bound on the distance from
// the query to any object of the candidate cell, derived from the
// generalized hyperplane between the query's pivot and the cell's pivot.
//
// In Algorithm 3's usage the roles are: the query r lives in partition i
// and the candidate partition is j, so callers pass distToOwn=|r,p_i|,
// distToOther=|r,p_j| and the pivot gap |p_i,p_j|. A non-positive result
// means the bound prunes nothing.
//
// Under L2 the exact hyperplane distance (|r,p_j|² − |r,p_i|²)/(2|p_i,p_j|)
// of Theorem 1 applies. Bisectors of other metrics are not hyperplanes and
// that formula can over-prune, so for L1/L∞ the metric-space-safe bound
// (|r,p_j| − |r,p_i|)/2 is used instead (it follows from two triangle
// inequalities and holds in any metric space).
func HyperplaneDist(distToOther, distToOwn, pivotGap float64, m vector.Metric) float64 {
	if m == vector.L2 {
		if pivotGap == 0 {
			return 0
		}
		return (distToOther*distToOther - distToOwn*distToOwn) / (2 * pivotGap)
	}
	return (distToOther - distToOwn) / 2
}

// UpperBound implements Theorem 3: ub(s, P_i^R) = U(P_i^R) + |p_i,p_j| +
// |p_j,s| bounds the distance from s ∈ P_j^S to every r ∈ P_i^R from above.
func UpperBound(uR, pivotGap, sPivotDist float64) float64 {
	return uR + pivotGap + sPivotDist
}

// LowerBound implements Theorem 4: lb(s, P_i^R) = max{0, |p_i,p_j| −
// U(P_i^R) − |p_j,s|} bounds the same distance from below.
func LowerBound(uR, pivotGap, sPivotDist float64) float64 {
	lb := pivotGap - uR - sPivotDist
	if lb < 0 {
		return 0
	}
	return lb
}

// BoundKNN implements Algorithm 1 for R-partition partR: the
// kNN-distance bound θ_i shared by every object of the partition,
// computed only from the summary tables (KNNBound over every TS row). It
// returns +Inf when S carries fewer than k objects in total.
func (sum *Summary) BoundKNN(partR int, pp *Partitioner) float64 {
	if sum.R[partR].Count == 0 {
		return 0 // no objects to bound; callers skip empty partitions
	}
	among := 0
	for _, s := range sum.S {
		among += len(s.KDists)
	}
	return KNNBound(sum.K, among, sum.R[partR].U, len(sum.S), func(j int) (float64, []float64) {
		return pp.PivotDist(partR, j), sum.S[j].KDists
	})
}

// LBReplica implements Corollary 2's threshold LB(P_j^S, P_i^R) =
// |p_i,p_j| − U(P_i^R) − θ_i: an object s ∈ P_j^S must be replicated to
// partition i's reducer iff |s,p_j| ≥ LBReplica.
func LBReplica(pivotGap, uR, theta float64) float64 {
	return pivotGap - uR - theta
}

// Theorem2Window returns the pivot-distance window of Theorem 2 for a
// query at distance rPivotDist from S-partition j's pivot with search
// radius theta: only objects s of the partition with |p_j,s| inside
// [lo, hi] can satisfy |r,s| ≤ theta. ok is false when the window is empty
// and the whole partition can be skipped.
func Theorem2Window(sRow SSummary, rPivotDist, theta float64) (lo, hi float64, ok bool) {
	lo = max(sRow.L, rPivotDist-theta) // the builtins are math.Max/Min, NaN and ±0 included
	hi = min(sRow.U, rPivotDist+theta)
	return lo, hi, lo <= hi
}

// Partition splits objects into per-pivot groups, tagging each object, and
// returns the tagged groups. It is the sequential (single-node) equivalent
// of MapReduce job 1 and is used by tests, tools and the centralized
// verification paths; the distributed path lives in package pgbj.
func (p *Partitioner) Partition(objs []codec.Object, src codec.Source, distCount *int64) [][]codec.Tagged {
	groups := make([][]codec.Tagged, len(p.Pivots))
	for _, o := range objs {
		part, d := p.Assign(o.Point, distCount)
		groups[part] = append(groups[part], codec.Tagged{
			Object: o, Src: src, Partition: int32(part), PivotDist: d,
		})
	}
	return groups
}

// SortByPivotDist orders a partition's objects by ascending pivot
// distance. Reducers keep S-partitions in this order so Theorem 2's window
// becomes two binary searches.
func SortByPivotDist(objs []codec.Tagged) {
	slices.SortFunc(objs, func(a, b codec.Tagged) int {
		if c := cmp.Compare(a.PivotDist, b.PivotDist); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}
