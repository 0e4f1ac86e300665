package vector

import (
	"fmt"
	"math"
	"sort"

	"knnjoin/internal/nnheap"
)

// Block is a columnar batch of points: all coordinates live in one
// contiguous row-major []float64 backing store stamped with a single
// dimensionality, with object ids and pivot distances in parallel
// slices. It is the reduce-side working representation of the kNN-join
// pipeline — a whole reducer value group decodes into one Block (see
// codec.DecodeBlock) instead of one freshly allocated Point per record,
// so the distance loops of Algorithm 3 run over flat, cache-resident
// arrays instead of chasing per-object pointers.
//
// The zero value is an empty block; the first appended row stamps Dim.
// Rows are append-only and identified by index.
type Block struct {
	// Dim is the dimensionality of every row. A block holding at least
	// one row of zero-dimensional points keeps Dim == 0.
	Dim int
	// IDs holds the object id of each row.
	IDs []int64
	// PivotDist holds each row's distance to its Voronoi pivot (the
	// Tagged.PivotDist field). Within one S partition delivered by the
	// shuffle's composite-key sort this slice is ascending, which is what
	// PivotDistWindow exploits.
	PivotDist []float64
	// Coords is the row-major backing store: row i occupies
	// Coords[i*Dim : (i+1)*Dim].
	Coords []float64

	// Kernel tier state, attached by Prepare (kernel.go). kern is the
	// resolved scan tier; the remaining fields are the quantized filter
	// and its certified error bounds. All are nil / zero for an
	// unprepared block, which scans with the exact fused float64 kernel.
	kern    Kernel
	codes   []uint8   // per-block affine uint8 codes (KernelQuantized)
	qStride int       // code row width: Dim padded to a multiple of 8
	errQ    []float64 // per-row ‖x − x̂‖·errInflate
	qMin    float64   // affine grid origin
	qScale  float64   // affine grid step ((max−min)/255)
	qRecErr float64   // absolute slack for reconstruction roundings
}

// Len returns the number of rows.
func (b *Block) Len() int { return len(b.IDs) }

// At returns row i as a Point view sharing the backing array — no copy.
// The view is valid until the next Append grows the block.
func (b *Block) At(i int) Point {
	return Point(b.Coords[i*b.Dim : (i+1)*b.Dim])
}

// Append adds one row. The first row stamps the block's dimensionality;
// a later row of a different dimensionality is a data error and is
// reported instead of corrupting the block — the driver.CheckObjects
// treatment, so a malformed reducer group fails the job rather than
// panicking the worker. Appending also drops any filter codes a
// previous Prepare attached (they would be stale); call Prepare again
// after the last row.
func (b *Block) Append(id int64, pivotDist float64, p Point) error {
	if len(b.IDs) == 0 {
		b.Dim = len(p)
	} else if len(p) != b.Dim {
		return fmt.Errorf("vector: appending %d-dim point to %d-dim block", len(p), b.Dim)
	}
	if b.kern != KernelBlock || b.codes != nil {
		b.Prepare(KernelBlock)
	}
	b.IDs = append(b.IDs, id)
	b.PivotDist = append(b.PivotDist, pivotDist)
	b.Coords = append(b.Coords, p...)
	return nil
}

// SqDistTo returns the squared Euclidean distance between row i and q —
// the same sqDistL2 kernel vector.SqDist runs, applied to the flat
// backing store, so the two agree bit for bit. Only meaningful under L2;
// hot loops defer the sqrt to emit time.
func (b *Block) SqDistTo(i int, q Point) float64 {
	if len(q) != b.Dim {
		panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", b.Dim, len(q)))
	}
	return sqDistL2(b.Coords[i*b.Dim:i*b.Dim+len(q)], q)
}

// DistTo returns the metric distance between row i and q. It delegates
// to Metric.Dist over a zero-copy row view, so results (and the
// dimension-mismatch panic) are identical by construction.
func (b *Block) DistTo(i int, q Point, m Metric) float64 {
	return m.Dist(b.At(i), q)
}

// NearestK pushes every row's distance to q onto h — the fused candidate
// loop of the reduce-side kNN computations. Under L2 the pushed
// distances are SQUARED (monotone in the true distance, so the retained
// set is identical); the caller takes the single sqrt per survivor at
// emit time. Under L1/L∞ true distances are pushed. It returns the
// number of rows scanned, which callers charge to the paper's
// distance-computation counter.
func (b *Block) NearestK(q Point, m Metric, h *nnheap.KHeap) int {
	return b.NearestKRange(q, 0, b.Len(), m, h)
}

// NearestKRange is NearestK restricted to rows [lo, hi) — the loop body
// of Algorithm 3 line 22 after Theorem-2 windowing. Under L2 it
// dispatches to the block's active kernel tier (see kernel.go); every
// tier retains a bit-identical candidate set. The fused float64 loop
// (scanF64) inlines the sqDistL2 kernel with a local copy of the heap's
// rejection bound, so a candidate that a full heap would reject never
// pays the Push call. The stride and summation order replicate sqDistL2
// exactly, so every retained squared distance is bit-identical to the
// scalar path's. One caveat: comparisons happen in squared space, so if
// two DISTINCT squared distances round to the same float64 under sqrt
// (adjacent doubles at the k-th-best boundary — never observed in the
// seed sweeps), the retained ID may differ from the scalar path's; the
// emitted distances are equal either way, a tie Definition 1 permits to
// resolve arbitrarily. (A partial-sum early-abandon variant measured
// slower up to d=32: the per-stride bound compare serializes the four
// accumulator chains for more than the skipped elements save.)
func (b *Block) NearestKRange(q Point, lo, hi int, m Metric, h *nnheap.KHeap) int {
	return b.NearestKRangeScratch(q, lo, hi, m, h, nil)
}

// NearestKRangeScratch is NearestKRange with caller-owned kernel
// scratch, so query loops on the quantized tier reuse the query-side
// code buffers instead of allocating per call. sc may be nil.
func (b *Block) NearestKRangeScratch(q Point, lo, hi int, m Metric, h *nnheap.KHeap, sc *Scratch) int {
	if lo >= hi {
		return 0
	}
	if len(q) != b.Dim {
		panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", b.Dim, len(q)))
	}
	switch m {
	case L2:
		if sc == nil {
			sc = &Scratch{}
		}
		b.nearestKGuts(q, lo, hi, h, sc)
	case L1, LInf:
		bound := math.Inf(1)
		if h.Full() {
			bound = h.Top().Dist
		}
		for i := lo; i < hi; i++ {
			d := b.DistTo(i, q, m)
			if d >= bound {
				continue
			}
			h.Push(nnheap.Candidate{ID: b.IDs[i], Dist: d})
			if h.Full() {
				bound = h.Top().Dist
			}
		}
	default:
		panic("vector: unknown metric")
	}
	return hi - lo
}

// RangeTo appends to dst a candidate for every row of [lo, hi) within
// distance theta of q (inclusive) and returns the extended slice; the
// appended distances are true metric distances. The scanned row count is
// added to *scanned when it is non-nil.
func (b *Block) RangeTo(q Point, lo, hi int, m Metric, theta float64, dst []nnheap.Candidate, scanned *int64) []nnheap.Candidate {
	if lo >= hi {
		return dst
	}
	if len(q) != b.Dim {
		panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", b.Dim, len(q)))
	}
	if scanned != nil {
		*scanned += int64(hi - lo)
	}
	if m == L2 {
		// The accept boundary is decided on the true (sqrt'd) distance so
		// results match Metric.Dist bit for bit at the radius edge. The
		// quantized tier first skips rows whose certified lower bound
		// exceeds theta — rows the exact test would also reject — so the
		// appended set is identical for every tier.
		return b.rangeGuts(q, lo, hi, theta, dst, &Scratch{})
	}
	for i := lo; i < hi; i++ {
		if d := b.DistTo(i, q, m); d <= theta {
			dst = append(dst, nnheap.Candidate{ID: b.IDs[i], Dist: d})
		}
	}
	return dst
}

// PivotDistWindow returns the half-open row range [from, to) of rows
// [lo, hi) whose PivotDist lies in [dLo, dHi]. Rows [lo, hi) must be
// ascending in PivotDist — the order the shuffle's composite-key sort
// guarantees for every S partition. This is the pivot-gap prefilter: the
// paper's Theorem-2 corollary (|d(s,p) − d(r,p)| ≥ θ ⇒ s prunable)
// applied over the flat PivotDist slice before any coordinate is
// touched, and the one place a voronoi.Walk's window becomes rows.
func (b *Block) PivotDistWindow(lo, hi int, dLo, dHi float64) (from, to int) {
	pd := b.PivotDist[lo:hi]
	from = lo + sort.Search(len(pd), func(i int) bool { return pd[i] >= dLo })
	to = lo + sort.Search(len(pd), func(i int) bool { return pd[i] > dHi })
	return from, to
}
