// Package shard is the sharded serving tier: the single-node vindex
// query split across N shard processes by Voronoi cell, behind a router
// that replays the EXACT single-node partition walk and delegates only
// the block scans.
//
// Byte-identity with single-node knnserve is the design constraint, and
// it is stricter than returning the same neighbors: responses embed the
// per-query Stats (distance computations, partitions scanned/pruned),
// which depend on the walk's evolving bound θ. A naive scatter-gather —
// query every relevant shard with the starting bound, merge top-k heaps
// — produces correct neighbors but different Stats, because θ tightens
// as partitions are scanned in pivot-distance order and later windows
// shrink. So the router holds a metadata-only view of the index
// (vindex.Load with NoCells: pivots, pivot-distance matrix, summary — no
// objects) and walks partitions in the exact single-node visit order,
// delegating each maximal run of consecutive same-shard partitions as
// one scan RPC that carries the walk state (θ, the candidate heap in
// verbatim internal order, the query's pivot gaps as float bits). The
// shard executes vindex.KNNStep — the same code the single-node path
// runs — and returns the updated state. Floats cross the wire as
// math.Float64bits, so no decimal round-trip can perturb a comparison.
//
// Each shard runs R identical replica processes; the router retries a
// scan on the next replica when one times out or dies (pure scans make
// retries safe), and a background prober demotes unhealthy replicas.
package shard

import (
	"fmt"
	"math"

	"knnjoin/internal/codec"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/vector"
	"knnjoin/internal/vindex"
)

// WireCand is one candidate of the walk's heap in transit: the distance
// travels as float bits so the restored heap is bit-identical.
type WireCand struct {
	// ID is the candidate object's identifier.
	ID int64 `json:"id"`
	// Dist is math.Float64bits of the retained distance (squared space
	// under L2 — whatever the kernels produced).
	Dist uint64 `json:"dist"`
}

// ScanPart is one partition of a scan run, with the query's
// precomputed pivot gap so the shard never recomputes a distance the
// router already charged to the query's accounting.
type ScanPart struct {
	// J is the partition (Voronoi cell) index.
	J int `json:"j"`
	// Gap is math.Float64bits of |q, p_J|.
	Gap uint64 `json:"gap"`
}

// ScanRequest is the body of POST /shard/scan: "execute these
// partitions of the walk, in order, starting from this exact state".
type ScanRequest struct {
	// Gen selects the shard's index generation (reload safety).
	Gen int64 `json:"gen"`
	// K is the query's neighbor count (the heap bound).
	K int `json:"k"`
	// QPart is the query's own cell; QDist is math.Float64bits of the
	// distance to its pivot. Both feed the Corollary-1 checks.
	QPart int `json:"q_part"`
	// QDist is math.Float64bits of |q, p_QPart|.
	QDist uint64 `json:"q_dist"`
	// Q is the query point, one math.Float64bits per coordinate.
	Q []uint64 `json:"q"`
	// Theta is math.Float64bits of the walk's current bound θ.
	Theta uint64 `json:"theta"`
	// Heap is the candidate heap in verbatim internal order.
	Heap []WireCand `json:"heap"`
	// Parts are the partitions to execute, in visit order.
	Parts []ScanPart `json:"parts"`

	// TraceID and SpanParent propagate the router's request span so the
	// shard's scan span joins the same trace. Omitted when tracing is
	// disabled; they ride only this request-side struct, never the
	// response, so enabling tracing cannot perturb any output byte.
	TraceID    string `json:"trace_id,omitempty"`
	SpanParent string `json:"span_parent,omitempty"`
}

// ScanResponse returns the walk state after the run plus the Stats
// delta the run accrued.
type ScanResponse struct {
	// Theta is math.Float64bits of the possibly-tightened θ.
	Theta uint64 `json:"theta"`
	// Heap is the updated heap in verbatim internal order.
	Heap []WireCand `json:"heap"`
	// DistComputations, PartitionsScanned and PartitionsPruned are the
	// run's additions to the query's Stats.
	DistComputations int64 `json:"dist_computations"`
	// PartitionsScanned counts cells of the run whose window was scanned.
	PartitionsScanned int `json:"partitions_scanned"`
	// PartitionsPruned counts cells of the run pruned wholesale.
	PartitionsPruned int `json:"partitions_pruned"`
}

// RangePart is one pre-windowed partition of a range scan.
type RangePart struct {
	// J is the partition index.
	J int `json:"j"`
	// Lo and Hi are math.Float64bits of the Theorem-2 pivot-distance
	// window the router computed.
	Lo uint64 `json:"lo"`
	// Hi is the window's upper bound.
	Hi uint64 `json:"hi"`
}

// RangeScanRequest is the body of POST /shard/range: scan these
// windows, return the objects within the radius.
type RangeScanRequest struct {
	// Gen selects the shard's index generation.
	Gen int64 `json:"gen"`
	// Q is the query point as float bits; Radius the search radius.
	Q []uint64 `json:"q"`
	// Radius is math.Float64bits of the search radius.
	Radius uint64 `json:"radius"`
	// Parts are the windows to scan.
	Parts []RangePart `json:"parts"`

	// TraceID and SpanParent mirror ScanRequest's trace propagation.
	TraceID    string `json:"trace_id,omitempty"`
	SpanParent string `json:"span_parent,omitempty"`
}

// WireObject is one range match in transit, coordinates as float bits.
type WireObject struct {
	// ID is the matched object's identifier.
	ID int64 `json:"id"`
	// Point is the object's coordinates, one math.Float64bits each.
	Point []uint64 `json:"point"`
}

// RangeScanResponse returns a range scan's matches and its row charge.
type RangeScanResponse struct {
	// Rows is the number of rows examined (the query's
	// distance-computation charge for this shard).
	Rows int64 `json:"rows"`
	// Matches are the objects within the radius, in scan order.
	Matches []WireObject `json:"matches"`
}

// ReloadShardRequest is the body of POST /shard/reload: load a new
// index generation alongside the one the router routes (the shard
// retains that generation so in-flight router walks finish
// consistently, even after failed reloads).
type ReloadShardRequest struct {
	// Gen is the new generation number.
	Gen int64 `json:"gen"`
	// Live is the generation the router routes while the reload runs;
	// the shard never evicts it.
	Live int64 `json:"live"`
	// Index is the index file to load; Cells the shard's new cell set.
	Index string `json:"index"`
	// Cells is the set of Voronoi cells this shard now owns.
	Cells []int `json:"cells"`
}

// pointBits converts a point to its wire form, one Float64bits per
// coordinate.
func pointBits(p vector.Point) []uint64 {
	out := make([]uint64, len(p))
	for i, v := range p {
		out[i] = math.Float64bits(v)
	}
	return out
}

// bitsPoint is the inverse of pointBits.
func bitsPoint(bits []uint64) vector.Point {
	out := make(vector.Point, len(bits))
	for i, b := range bits {
		out[i] = math.Float64frombits(b)
	}
	return out
}

// heapWire snapshots a heap's internal array for the wire.
func heapWire(h *nnheap.KHeap) []WireCand {
	items := h.Items()
	out := make([]WireCand, len(items))
	for i, c := range items {
		out[i] = WireCand{ID: c.ID, Dist: math.Float64bits(c.Dist)}
	}
	return out
}

// wireHeap restores a heap from its wire form, verbatim.
func wireHeap(k int, wc []WireCand) (*nnheap.KHeap, error) {
	items := make([]nnheap.Candidate, len(wc))
	for i, c := range wc {
		items[i] = nnheap.Candidate{ID: c.ID, Dist: math.Float64frombits(c.Dist)}
	}
	return nnheap.RestoreKHeap(k, items)
}

// execScan runs one scan request against an index that holds the
// requested partitions — the shard process's handler core, also used
// directly by tests that check the router walk against the full index
// without spawning processes.
func execScan(ix *vindex.Index, req *ScanRequest) (*ScanResponse, error) {
	if req.K <= 0 {
		return nil, fmt.Errorf("scan: k must be positive, got %d", req.K)
	}
	numPart := ix.NumPartitions()
	if req.QPart < 0 || req.QPart >= numPart {
		return nil, fmt.Errorf("scan: query partition %d out of range [0,%d)", req.QPart, numPart)
	}
	if len(req.Q) != ix.Dim() {
		return nil, fmt.Errorf("scan: query has %d coordinates, the index %d", len(req.Q), ix.Dim())
	}
	q := bitsPoint(req.Q)
	heap, err := wireHeap(req.K, req.Heap)
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	w := ix.Walk(req.QPart, math.Float64frombits(req.QDist), math.Float64frombits(req.Theta))
	var st vindex.Stats
	var sc vector.Scratch
	for _, p := range req.Parts {
		if p.J < 0 || p.J >= numPart {
			return nil, fmt.Errorf("scan: partition %d out of range [0,%d)", p.J, numPart)
		}
		ix.KNNStep(&w, p.J, q, math.Float64frombits(p.Gap), heap, &sc, &st)
	}
	return &ScanResponse{
		Theta:             math.Float64bits(w.Theta),
		Heap:              heapWire(heap),
		DistComputations:  st.DistComputations,
		PartitionsScanned: st.PartitionsScanned,
		PartitionsPruned:  st.PartitionsPruned,
	}, nil
}

// execRangeScan runs one range-scan request — the /shard/range handler
// core, shared with the in-process tests like execScan.
func execRangeScan(ix *vindex.Index, req *RangeScanRequest) (*RangeScanResponse, error) {
	if len(req.Q) != ix.Dim() {
		return nil, fmt.Errorf("range scan: query has %d coordinates, the index %d", len(req.Q), ix.Dim())
	}
	q := bitsPoint(req.Q)
	radius := math.Float64frombits(req.Radius)
	numPart := ix.NumPartitions()
	resp := &RangeScanResponse{}
	var objs []codec.Object
	for _, p := range req.Parts {
		if p.J < 0 || p.J >= numPart {
			return nil, fmt.Errorf("range scan: partition %d out of range [0,%d)", p.J, numPart)
		}
		var rows int
		objs, rows = ix.RangeStep(p.J, q, math.Float64frombits(p.Lo), math.Float64frombits(p.Hi), radius, objs[:0])
		resp.Rows += int64(rows)
		for _, o := range objs {
			resp.Matches = append(resp.Matches, WireObject{ID: o.ID, Point: pointBits(o.Point)})
		}
	}
	return resp, nil
}

// wireObjects converts range matches back to objects.
func wireObjects(ws []WireObject) []codec.Object {
	out := make([]codec.Object, len(ws))
	for i, w := range ws {
		out[i] = codec.Object{ID: w.ID, Point: bitsPoint(w.Point)}
	}
	return out
}
