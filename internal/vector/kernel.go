package vector

import (
	"fmt"
	"math"

	"knnjoin/internal/nnheap"
)

// This file implements the tiered distance-kernel layer. A Block always
// keeps its exact float64 coordinates; Prepare optionally attaches a
// cheaper *filter* representation — per-block uint8 affine codes — that
// the L2 scan kernels consult first. The filter never decides membership
// on its own: it computes a certified LOWER bound on the true distance,
// skips a row only when that bound already exceeds the current rejection
// threshold (a skip the exact kernel would also have taken), and re-ranks
// every survivor with the exact float64 kernel. Final results are
// therefore bit-identical to the float64 path for every tier — the same
// filter-then-refine discipline the paper's Theorem-2 windows apply one
// level up, pushed down to the row scan (the hybrid CPU/GPU design of
// arXiv:1810.04758 applies the same split across devices).
//
// Lower-bound derivation (all distances L2, x the row, q the query).
// Each coordinate is coded c = round((v−min)/scale) into a uint8 with
// per-block min/scale; the reconstruction is x̂ⱼ = min + cⱼ·scale. The
// code-space squared distance isum = Σ (cxⱼ−cqⱼ)² is EXACT in int64
// (≤ 255²·dim ≪ 2⁵³), so ‖x̂−q̂‖ = scale·√isum up to float64 rounding,
// and
//
//	d(x,q) ≥ scale·√isum·(1−ε) − rowErr − qErr − recErr
//
// with rowErr = ‖x−x̂‖ and qErr = ‖q−q̂‖ measured in float64 at build /
// scan time, ε = 1e-9 absorbing the √ and × roundings, and recErr a
// per-block absolute slack covering the reconstruction roundings of
// min + c·scale (≤ (dim+1)·(|min|+256·scale)·1e-12, three orders above
// the true 2⁻⁵² terms). A fuzz test pins the invariant lb ≤ d(x,q).
//
// The filter only acts while the heap is full (bound < +Inf); before
// that every row is scored exactly, so warm-up behavior matches the
// float64 kernel push for push.

// Kernel names the scan tier a Block uses for L2 distance kernels. The
// tier is not a setting: every block the joins and the index scan is
// prepared with KernelAuto, which picks from the block's shape (see
// AutoTier). The zero value is KernelBlock, the tier of an unprepared
// block. Non-L2 metrics always use the exact scalar path regardless of
// tier.
type Kernel uint8

const (
	// KernelBlock is the fused float64 kernel over the columnar store
	// (4-way unrolled, heap-bound rejection).
	KernelBlock Kernel = iota
	// KernelScalar is the reference tier: one sqDistL2 call per row,
	// no fused bound short-circuit, no batching. It is the oracle the
	// tier-equality tests compare every other tier against.
	KernelScalar
	// KernelQuantized scans per-block min/max affine uint8 codes first
	// (8× less bandwidth than float64) and refines survivors with the
	// exact float64 kernel. Falls back to KernelBlock at Prepare time
	// when the block holds non-finite coordinates.
	KernelQuantized
	// KernelAuto lets Prepare pick the tier from the block's shape.
	KernelAuto
)

// String returns the tier's name.
func (k Kernel) String() string {
	switch k {
	case KernelBlock:
		return "block"
	case KernelScalar:
		return "scalar"
	case KernelQuantized:
		return "quantized"
	case KernelAuto:
		return "auto"
	}
	return fmt.Sprintf("kernel(%d)", uint8(k))
}

// errInflate pads the float64-computed error norms (rowErr, qErr) so
// their own summation rounding can never make a certified bound
// optimistic.
const errInflate = 1 + 1e-12

// quantRelSlack absorbs the √ and × roundings of scale·√isum. 1e-9 is
// seven orders above the true 2⁻⁵² rounding terms and costs nothing in
// pruning power.
const quantRelSlack = 1 - 1e-9

// Prepare resolves and attaches the scan tier. It must be called after
// the last Append: appending a row drops any attached filter codes (the
// block falls back to the exact float64 kernel) because stale codes
// would break the certified bounds. Prepare is idempotent and cheap to
// call on an empty block. KernelQuantized falls back to KernelBlock when
// the block cannot support it (empty, zero-dimensional, or non-finite
// coordinates), so ActiveKernel reports the tier actually in effect.
func (b *Block) Prepare(k Kernel) {
	b.kern = KernelBlock
	b.codes, b.errQ = nil, nil
	b.qMin, b.qScale, b.qRecErr, b.qStride = 0, 0, 0, 0
	if k == KernelAuto {
		k = AutoTier(b.Dim, b.Len())
	}
	switch k {
	case KernelScalar:
		b.kern = KernelScalar
	case KernelQuantized:
		if b.buildQuant() {
			b.kern = KernelQuantized
		}
	}
}

// ActiveKernel reports the tier Prepare resolved to (KernelBlock for a
// block that was never prepared).
func (b *Block) ActiveKernel() Kernel { return b.kern }

// AutoTier is the one tier policy: the tier KernelAuto gives a block of
// rows rows at dimensionality dim, and the tier the planner prices. The
// quantized tier wins once the scan is bandwidth-bound — the crossover
// measured around d=8 — and needs enough rows for its
// one-time code build to amortize. Small or low-dimensional blocks stay
// on the fused float64 kernel, which is already compute-bound there.
func AutoTier(dim, rows int) Kernel {
	if dim >= 8 && rows >= 128 {
		return KernelQuantized
	}
	return KernelBlock
}

// quantMaxDim caps the quantized tier's dimensionality. The SSE2
// code-space kernel (quantSqRows) accumulates squared code deltas in
// int32 lanes; 255²·16384 < 2³¹ keeps every lane and the final
// horizontal sum exact. Blocks wider than this fall back to the fused
// float64 kernel.
const quantMaxDim = 16384

func (b *Block) buildQuant() bool {
	n, dim := b.Len(), b.Dim
	if n == 0 || dim == 0 || dim > quantMaxDim {
		return false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range b.Coords {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	scale := (hi - lo) / 255
	var inv float64
	if scale > 0 {
		inv = 1 / scale
	}
	// Code rows are padded to a multiple of 8 zero codes so the SIMD
	// kernel can consume whole 8-byte groups; quantQuery zero-pads the
	// query codes the same way, so padding contributes 0 to every sum.
	stride := (dim + 7) &^ 7
	codes := make([]uint8, n*stride)
	errs := make([]float64, n)
	for i := 0; i < n; i++ {
		row := b.Coords[i*dim : (i+1)*dim]
		crow := codes[i*stride : i*stride+dim]
		var sum float64
		for j, v := range row {
			c := quantizeCoord(v, lo, inv)
			crow[j] = c
			d := v - (lo + float64(c)*scale)
			sum += d * d
		}
		errs[i] = math.Sqrt(sum) * errInflate //lint:allow sqrtfree: quantization error norm ‖row−roŵ‖, once per row at block build
	}
	b.codes, b.errQ, b.qMin, b.qScale, b.qStride = codes, errs, lo, scale, stride
	b.qRecErr = float64(dim+1) * (math.Abs(lo) + 256*scale) * 1e-12
	return true
}

// quantizeCoord codes v against the affine grid, rounding half up.
// Any deterministic rounding is valid — the certified error terms are
// measured against the actual reconstruction — and for in-range values
// this form matches the round-half-away convention while avoiding a
// math.Round call in the O(n·dim) build pass. Out-of-range and NaN
// inputs (possible for query points) clamp to the grid ends.
func quantizeCoord(v, lo, inv float64) uint8 {
	f := (v - lo) * inv
	if !(f > 0) { // negative, -0, or NaN
		return 0
	}
	if f >= 255 {
		return 255
	}
	return uint8(f + 0.5)
}

// Scratch is reusable per-caller workspace for the quantized tier's
// query-side coding. A Block is shared read-only across goroutines, so
// the workspace lives with the caller: reuse one Scratch per goroutine
// (or per query loop) and the scan kernels allocate nothing after the
// first call. A nil *Scratch is accepted everywhere and falls back to a
// transient allocation.
type Scratch struct {
	cq []uint8
	is []int64
}

// isumBuf returns an n-element int64 buffer for code-space row sums,
// reusing the scratch's allocation across chunks.
func (sc *Scratch) isumBuf(n int) []int64 {
	if cap(sc.is) < n {
		sc.is = make([]int64, n)
	}
	return sc.is[:n]
}

// quantQuery codes q against the block's affine grid and returns the
// code buffer plus the padded quantization error norm ‖q−q̂‖·errInflate.
// The buffer is stride long, zero-padded past len(q) to mirror the
// zero-padded code rows (see buildQuant).
func (sc *Scratch) quantQuery(q Point, lo, scale float64, stride int) ([]uint8, float64) {
	if cap(sc.cq) < stride {
		sc.cq = make([]uint8, stride)
	}
	var inv float64
	if scale > 0 {
		inv = 1 / scale
	}
	cq := sc.cq[:stride]
	for j := len(q); j < stride; j++ {
		cq[j] = 0
	}
	var sum float64
	for j, v := range q {
		c := quantizeCoord(v, lo, inv)
		cq[j] = c
		d := v - (lo + float64(c)*scale)
		sum += d * d
	}
	return cq, math.Sqrt(sum) * errInflate //lint:allow sqrtfree: query error norm ‖q−q̂‖, once per query
}

// scanScalar is the KernelScalar tier: the pre-columnar shape — one
// out-of-line sqDistL2 call per row instead of the fused inline loop,
// with the same rejection-bound semantics so the retained set stays
// identical to the fused path (including the +Inf-distance edge, which
// the bound check drops whether or not the heap is full).
func (b *Block) scanScalar(q Point, lo, hi int, h *nnheap.KHeap) {
	dim := b.Dim
	ids := b.IDs[lo:hi] // window view: ranging over it proves ids[o]
	bound := math.Inf(1)
	if h.Full() {
		bound = h.Top().Dist
	}
	for o := range ids {
		i := lo + o
		s := sqDistL2(b.Coords[i*dim:i*dim+len(q)], q)
		if s >= bound {
			continue
		}
		h.Push(nnheap.Candidate{ID: ids[o], Dist: s})
		if h.Full() {
			bound = h.Top().Dist
		}
	}
}

// scanF64 is the KernelBlock tier: the fused float64 loop (see the
// NearestKRange comment in block.go for the squared-space caveat).
func (b *Block) scanF64(q Point, lo, hi int, h *nnheap.KHeap) {
	dim := b.Dim
	ids := b.IDs[lo:hi]
	bound := math.Inf(1)
	if h.Full() {
		bound = h.Top().Dist
	}
	for o := range ids {
		// Chunk-advance shape for bounds-check elimination, exactly as
		// in sqDistL2 — same accumulation order, bit-identical sums.
		i := lo + o
		row := b.Coords[i*dim : i*dim+len(q)]
		qr := q[:len(row)]
		var s0, s1, s2, s3 float64
		for len(row) >= 4 {
			qr = qr[:len(row)]
			d0 := row[0] - qr[0]
			d1 := row[1] - qr[1]
			d2 := row[2] - qr[2]
			d3 := row[3] - qr[3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
			row, qr = row[4:], qr[4:]
		}
		qr = qr[:len(row)]
		for j, v := range row {
			d := v - qr[j]
			s0 += d * d
		}
		s := (s0 + s1) + (s2 + s3)
		if s >= bound {
			continue
		}
		h.Push(nnheap.Candidate{ID: ids[o], Dist: s})
		if h.Full() {
			bound = h.Top().Dist
		}
	}
}

// quantChunkRows bounds the per-chunk isum buffer of the quantized
// scans: the SIMD kernel fills code-space sums for up to this many rows
// per call (8 KiB of int64 scratch), amortizing its call overhead while
// keeping the scratch cache-resident for any window size.
const quantChunkRows = 1024

// scanQuant is the KernelQuantized tier: uint8 code filter, exact
// float64 refine. The code-space sums are bound-independent, so each
// chunk computes them in one SIMD sweep (quantSqRows) and the skip test
// reduces to one multiply-compare per row: instead of pricing
//
//	lb = scale·√isum·quantRelSlack − rowErr − qErr − recErr ≥ √bound
//
// with a sqrt per row, it compares isum against the threshold
//
//	t = (√bound + rowErr + qErr + recErr) · (1+1e-9)/(scale·quantRelSlack)
//
// in squared code space, recomputing √bound only when the heap bound
// changes. The (1+1e-9) pad rounds the threshold up past every float64
// rounding in its evaluation, so isum ≥ t² still certifies lb ≥ √bound:
// the skip set stays certified (and a certified skip can never change
// the heap — the exact refine would have rejected the row via s ≥ bound
// anyway), keeping results bit-identical to the float64 path.
func (b *Block) scanQuant(q Point, lo, hi int, h *nnheap.KHeap, sc *Scratch) {
	dim := b.Dim
	stride := b.qStride
	cq, qErr := sc.quantQuery(q, b.qMin, b.qScale, stride)
	slack := qErr + b.qRecErr
	invQ := (1 + 1e-9) / (b.qScale * quantRelSlack)
	bound := math.Inf(1)
	var tBase float64
	full := h.Full()
	if full {
		bound = h.Top().Dist
		tBase = math.Sqrt(bound) + slack //lint:allow sqrtfree: threshold reprice on heap-bound change only, not per row
	}
	for p0 := lo; p0 < hi; p0 += quantChunkRows {
		p1 := min(p0+quantChunkRows, hi)
		isums := sc.isumBuf(p1 - p0)
		quantSqRows(b.codes[p0*stride:p1*stride], cq, stride, p1-p0, isums)
		ids := b.IDs[p0:p1] // window views: ranging over ids proves [o]
		errs := b.errQ[p0:p1][:len(ids)]
		is := isums[:len(ids)]
		for o := range ids {
			if full {
				t := (tBase + errs[o]) * invQ
				if float64(is[o]) >= t*t {
					continue
				}
			}
			i := p0 + o
			s := sqDistL2(b.Coords[i*dim:i*dim+len(q)], q)
			if s >= bound {
				continue
			}
			h.Push(nnheap.Candidate{ID: ids[o], Dist: s})
			if h.Full() {
				full = true
				bound = h.Top().Dist
				tBase = math.Sqrt(bound) + slack //lint:allow sqrtfree: threshold reprice on heap-bound change only, not per row
			}
		}
	}
}

// quantLowerBound exposes one row's quantized lower bound for the fuzz
// test pinning lb ≤ d(x,q). scanQuant prices the same bound sqrt-free
// in squared code space; this is the distance-space form it derives
// from, fed by the same quantSqRows code-space sum.
func (b *Block) quantLowerBound(i int, q Point, sc *Scratch) float64 {
	stride := b.qStride
	cq, qErr := sc.quantQuery(q, b.qMin, b.qScale, stride)
	var isum [1]int64
	quantSqRows(b.codes[i*stride:(i+1)*stride], cq, stride, 1, isum[:])
	return b.qScale*math.Sqrt(float64(isum[0]))*quantRelSlack - b.errQ[i] - qErr - b.qRecErr //lint:allow sqrtfree: certified lower bound is defined in true units; fuzz-gate helper, not the scan loop
}

// nearestKGuts dispatches one L2 row-range scan to the active tier.
func (b *Block) nearestKGuts(q Point, lo, hi int, h *nnheap.KHeap, sc *Scratch) {
	switch b.kern {
	case KernelScalar:
		b.scanScalar(q, lo, hi, h)
	case KernelQuantized:
		b.scanQuant(q, lo, hi, h, sc)
	default:
		b.scanF64(q, lo, hi, h)
	}
}

// panelBytes sizes the row panels of the batched kernels: the filter-
// side bytes of one panel target the L1 working set so a panel stays
// cache-resident while every query of the batch sweeps it.
const panelBytes = 32 << 10

// panelRows returns how many rows of the active tier's filter
// representation fit one panel.
func (b *Block) panelRows() int {
	dim := b.Dim
	if dim < 1 {
		dim = 1
	}
	per := 8 * dim
	if b.kern == KernelQuantized {
		per = dim // uint8 codes
	}
	rows := panelBytes / per
	if rows < 1 {
		rows = 1
	}
	return rows
}

// NearestKBatch runs NearestK for every query of qs against the whole
// block, sweeping cache-sized row panels across all queries so each
// panel of S is loaded once per batch instead of once per query. Row
// order within each query is ascending exactly as in NearestK, so every
// heap retains bit-identical candidates to the sequential calls. It
// returns the total rows scanned (len(qs)·Len()).
func (b *Block) NearestKBatch(qs []Point, m Metric, hs []*nnheap.KHeap) int64 {
	if len(qs) != len(hs) {
		panic(fmt.Sprintf("vector: NearestKBatch: %d queries, %d heaps", len(qs), len(hs)))
	}
	n := b.Len()
	if n == 0 || len(qs) == 0 {
		return 0
	}
	if m != L2 || b.kern == KernelScalar {
		// Non-L2 metrics and the reference scalar tier keep the
		// unbatched per-query shape.
		var scanned int64
		for i, q := range qs {
			scanned += int64(b.NearestKRange(q, 0, n, m, hs[i]))
		}
		return scanned
	}
	b.checkQueryDims(qs)
	var sc Scratch
	pr := b.panelRows()
	for p := 0; p < n; p += pr {
		pEnd := p + pr
		if pEnd > n {
			pEnd = n
		}
		for i, q := range qs {
			b.nearestKGuts(q, p, pEnd, hs[i], &sc)
		}
	}
	return int64(len(qs)) * int64(n)
}

// NearestKBatchRanges is NearestKBatch with a per-query row window
// [lo[i], hi[i]) — the batched form of NearestKRange after per-query
// Theorem-2 windowing. Windows with lo[i] ≥ hi[i] scan nothing. The
// return value is the summed window sizes, matching what the sequential
// NearestKRange calls would have returned. sc is the caller's kernel
// scratch, held across calls so the quantized tier's query buffers are
// allocated once per caller rather than once per batch; it may be nil.
func (b *Block) NearestKBatchRanges(qs []Point, lo, hi []int, m Metric, hs []*nnheap.KHeap, sc *Scratch) int64 {
	if len(qs) != len(hs) || len(qs) != len(lo) || len(qs) != len(hi) {
		panic(fmt.Sprintf("vector: NearestKBatchRanges: mismatched lengths %d/%d/%d/%d",
			len(qs), len(lo), len(hi), len(hs)))
	}
	var scanned int64
	gLo, gHi := b.Len(), 0
	for i := range qs {
		if lo[i] >= hi[i] {
			continue
		}
		scanned += int64(hi[i] - lo[i])
		if lo[i] < gLo {
			gLo = lo[i]
		}
		if hi[i] > gHi {
			gHi = hi[i]
		}
	}
	if scanned == 0 {
		return 0
	}
	if m != L2 || b.kern == KernelScalar {
		for i, q := range qs {
			if lo[i] < hi[i] {
				b.NearestKRangeScratch(q, lo[i], hi[i], m, hs[i], sc)
			}
		}
		return scanned
	}
	b.checkQueryDims(qs)
	if sc == nil {
		sc = &Scratch{}
	}
	pr := b.panelRows()
	for p := gLo; p < gHi; p += pr {
		pEnd := p + pr
		if pEnd > gHi {
			pEnd = gHi
		}
		for i, q := range qs {
			r0, r1 := lo[i], hi[i]
			if r0 < p {
				r0 = p
			}
			if r1 > pEnd {
				r1 = pEnd
			}
			if r0 < r1 {
				b.nearestKGuts(q, r0, r1, hs[i], sc)
			}
		}
	}
	return scanned
}

// rangeGuts dispatches one L2 range scan to the active tier: the
// quantized tier skips rows whose certified lower bound already exceeds
// theta (a row the exact test would also reject) and refines the rest
// exactly, so the appended candidates match the float64 path bit for bit.
func (b *Block) rangeGuts(q Point, lo, hi int, theta float64, dst []nnheap.Candidate, sc *Scratch) []nnheap.Candidate {
	dim := b.Dim
	ids := b.IDs[lo:hi] // window views: [i-lo] is provably in bounds
	switch b.kern {
	case KernelQuantized:
		stride := b.qStride
		cq, qErr := sc.quantQuery(q, b.qMin, b.qScale, stride)
		invQ := (1 + 1e-9) / (b.qScale * quantRelSlack)
		tBase := theta + qErr + b.qRecErr
		for p0 := lo; p0 < hi; p0 += quantChunkRows {
			p1 := min(p0+quantChunkRows, hi)
			isums := sc.isumBuf(p1 - p0)
			quantSqRows(b.codes[p0*stride:p1*stride], cq, stride, p1-p0, isums)
			pids := b.IDs[p0:p1]
			errs := b.errQ[p0:p1][:len(pids)]
			is := isums[:len(pids)]
			for o := range pids {
				// θ is fixed, so the sqrt-free threshold (see scanQuant)
				// needs only one add and two multiplies per row.
				t := (tBase + errs[o]) * invQ
				if float64(is[o]) > t*t {
					continue
				}
				i := p0 + o
				s := sqDistL2(b.Coords[i*dim:i*dim+len(q)], q)
				if d := math.Sqrt(s); d <= theta { //lint:allow sqrtfree: range radius θ is in true units; one sqrt per filter survivor at emit
					dst = append(dst, nnheap.Candidate{ID: pids[o], Dist: d})
				}
			}
		}
	default: // block and scalar tiers share the exact loop
		for o := range ids {
			i := lo + o
			s := sqDistL2(b.Coords[i*dim:i*dim+len(q)], q)
			if d := math.Sqrt(s); d <= theta { //lint:allow sqrtfree: range radius θ is in true units; one sqrt per window survivor at emit
				dst = append(dst, nnheap.Candidate{ID: ids[o], Dist: d})
			}
		}
	}
	return dst
}

// RangeToBatchRanges is RangeTo batched over queries with per-query row
// windows, sweeping cache-sized panels the way NearestKBatchRanges
// does. dsts[i] receives query i's candidates (appended in ascending
// row order, identical to a sequential RangeTo call) and the extended
// slices are written back in place. theta is shared by the batch — the
// callers batch rows of one R partition, which share θ_i. sc is the
// caller's kernel scratch, as in NearestKBatchRanges; it may be nil.
func (b *Block) RangeToBatchRanges(qs []Point, lo, hi []int, m Metric, theta float64, dsts [][]nnheap.Candidate, scanned *int64, sc *Scratch) {
	if len(qs) != len(dsts) || len(qs) != len(lo) || len(qs) != len(hi) {
		panic(fmt.Sprintf("vector: RangeToBatchRanges: mismatched lengths %d/%d/%d/%d",
			len(qs), len(lo), len(hi), len(dsts)))
	}
	var total int64
	gLo, gHi := b.Len(), 0
	for i := range qs {
		if lo[i] >= hi[i] {
			continue
		}
		total += int64(hi[i] - lo[i])
		if lo[i] < gLo {
			gLo = lo[i]
		}
		if hi[i] > gHi {
			gHi = hi[i]
		}
	}
	if scanned != nil {
		*scanned += total
	}
	if total == 0 {
		return
	}
	if m != L2 {
		for i, q := range qs {
			dsts[i] = b.RangeTo(q, lo[i], hi[i], m, theta, dsts[i], nil)
		}
		return
	}
	b.checkQueryDims(qs)
	if sc == nil {
		sc = &Scratch{}
	}
	pr := b.panelRows()
	for p := gLo; p < gHi; p += pr {
		pEnd := p + pr
		if pEnd > gHi {
			pEnd = gHi
		}
		for i, q := range qs {
			r0, r1 := lo[i], hi[i]
			if r0 < p {
				r0 = p
			}
			if r1 > pEnd {
				r1 = pEnd
			}
			if r0 < r1 {
				dsts[i] = b.rangeGuts(q, r0, r1, theta, dsts[i], sc)
			}
		}
	}
}

// checkQueryDims panics on a query/block dimensionality mismatch — the
// internal-invariant form of the per-call check NearestKRange performs.
// Build sites validate dims when blocks are assembled (see
// driver.CollectRSBlocks and codec.AppendTaggedToBlock), so reaching
// this panic means a kernel was handed rows that never went through a
// validated build path.
func (b *Block) checkQueryDims(qs []Point) {
	for _, q := range qs {
		if len(q) != b.Dim {
			panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", b.Dim, len(q)))
		}
	}
}
