package benchjobs

// Distance-path micro-benchmark workloads: the PGBJ-reducer-shaped
// decode+join measured both through the legacy per-Object path (one
// codec.DecodeTagged and one Point allocation per record, Metric.Dist
// per candidate) and through the columnar path (codec.DecodeBlock once
// per group, fused squared-distance kernels, emit-time sqrt). Both
// variants run the identical candidate sets, so their outputs are
// comparable and the ns/op and allocs/op deltas isolate the
// representation change. Shared by bench_test.go and cmd/distbench so
// BENCH_dist.json records the same work `go test -bench` measures.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"knnjoin/internal/codec"
	"knnjoin/internal/driver"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/vector"
)

// DistInput encodes n Tagged wire records of dimensionality dim — one S
// partition as a reducer receives it: coordinates uniform in [0,1)^dim,
// PivotDist the distance to the origin pivot, records ascending by
// PivotDist (the shuffle's secondary-sort order).
func DistInput(n, dim int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	type row struct {
		p  vector.Point
		pd float64
	}
	rows := make([]row, n)
	for i := range rows {
		p := make(vector.Point, dim)
		for d := range p {
			p[d] = rng.Float64()
		}
		rows[i] = row{p: p, pd: norm(p)}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].pd < rows[b].pd })
	recs := make([][]byte, n)
	for i, r := range rows {
		recs[i] = codec.EncodeTagged(codec.Tagged{
			Object:    codec.Object{ID: int64(i), Point: r.p},
			Src:       codec.FromS,
			Partition: 0,
			PivotDist: r.pd,
		})
	}
	return recs
}

// DistQueries draws q query points from the same distribution.
func DistQueries(q, dim int, seed int64) []vector.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]vector.Point, q)
	for i := range out {
		p := make(vector.Point, dim)
		for d := range p {
			p[d] = rng.Float64()
		}
		out[i] = p
	}
	return out
}

// DistTheta returns the Theorem-2 window half-width that admits roughly
// frac of a DistInput group per query — the reducer-realistic regime
// where windows cover a slice of each S partition, not the whole of it.
// It reads the pivot-distance spread off the (sorted) input's first and
// last records.
func DistTheta(recs [][]byte, frac float64) (float64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	first, err := codec.DecodeTagged(recs[0])
	if err != nil {
		return 0, err
	}
	last, err := codec.DecodeTagged(recs[len(recs)-1])
	if err != nil {
		return 0, err
	}
	return (last.PivotDist - first.PivotDist) * frac / 2, nil
}

// DistWindowFrac is the canonical window fraction of the join
// micro-benchmarks.
const DistWindowFrac = 0.15

// norm is the distance to the origin pivot, allocation-free so the
// measured join loops carry no benchmark-scaffolding allocations.
func norm(p vector.Point) float64 {
	var s float64
	for _, v := range p {
		s += v * v
	}
	return math.Sqrt(s)
}

// DecodeScalar decodes every record through codec.DecodeTagged — the
// pre-Block per-object path, two allocations per point. The returned
// coordinate count defeats dead-code elimination.
func DecodeScalar(recs [][]byte) (int, error) {
	var coords int
	for i, rec := range recs {
		t, err := codec.DecodeTagged(rec)
		if err != nil {
			return 0, fmt.Errorf("benchjobs: record %d: %w", i, err)
		}
		coords += t.Point.Dim()
	}
	return coords, nil
}

// DecodeBlock decodes the whole batch through codec.DecodeBlock — the
// columnar path, a constant number of allocations per group.
func DecodeBlock(recs [][]byte) (int, error) {
	blk, _, _, err := codec.DecodeBlock(recs)
	if err != nil {
		return 0, err
	}
	return len(blk.Coords), nil
}

// JoinScalar runs the PGBJ-reducer-shaped join on the per-Object path:
// decode each record into a Tagged (allocating its Point), then for each
// query apply the Theorem-2 pivot-distance window and push true L2
// distances. The returned checksum must equal JoinBlock's.
func JoinScalar(recs [][]byte, queries []vector.Point, k int, theta float64) (int64, error) {
	tags := make([]codec.Tagged, len(recs))
	for i, rec := range recs {
		t, err := codec.DecodeTagged(rec)
		if err != nil {
			return 0, fmt.Errorf("benchjobs: record %d: %w", i, err)
		}
		tags[i] = t
	}
	heap := nnheap.NewKHeap(k)
	var sink int64
	for _, q := range queries {
		qpd := norm(q)
		wlo, whi := qpd-theta, qpd+theta
		lo := sort.Search(len(tags), func(i int) bool { return tags[i].PivotDist >= wlo })
		hi := sort.Search(len(tags), func(i int) bool { return tags[i].PivotDist > whi })
		heap.Reset()
		for x := lo; x < hi; x++ {
			heap.Push(nnheap.Candidate{ID: tags[x].ID, Dist: vector.L2.Dist(q, tags[x].Point)})
		}
		cands := heap.Sorted()
		nbs := make([]codec.Neighbor, len(cands))
		for i, c := range cands {
			nbs[i] = codec.Neighbor{ID: c.ID, Dist: c.Dist}
		}
		sink += checksum(nbs)
	}
	return sink, nil
}

// JoinBlock runs the identical join on the columnar path: one
// codec.DecodeBlock for the group, Block.PivotDistWindow for the
// Theorem-2 window, the fused NearestKRange kernel in squared space, and
// the single sqrt per survivor at emit time.
func JoinBlock(recs [][]byte, queries []vector.Point, k int, theta float64) (int64, error) {
	blk, _, _, err := codec.DecodeBlock(recs)
	if err != nil {
		return 0, err
	}
	heap := nnheap.NewKHeap(k)
	var cbuf []nnheap.Candidate
	var nbuf []codec.Neighbor
	var sink int64
	for _, q := range queries {
		qpd := norm(q)
		lo, hi := blk.PivotDistWindow(0, blk.Len(), qpd-theta, qpd+theta)
		heap.Reset()
		blk.NearestKRange(q, lo, hi, vector.L2, heap)
		cbuf = heap.AppendSorted(cbuf[:0])
		nbuf = driver.AppendNeighbors(nbuf[:0], cbuf, true)
		sink += checksum(nbuf)
	}
	return sink, nil
}

// JoinKernelBatch runs the same PGBJ-reducer-shaped join through the
// query-batched kernels at a forced tier: one codec.DecodeBlock plus
// Prepare(kern) for the group (code builds are part of the measured
// cost — reducers pay them per group), Theorem-2 windows for every
// query, then a single NearestKBatchRanges sweep that streams each
// S panel across the whole query batch. The checksum must equal
// JoinScalar's for every tier — the quantized tier only skips rows its
// certified lower bound proves out, and survivors re-rank exactly.
func JoinKernelBatch(recs [][]byte, queries []vector.Point, k int, theta float64, kern vector.Kernel) (int64, error) {
	blk, _, _, err := codec.DecodeBlock(recs)
	if err != nil {
		return 0, err
	}
	blk.Prepare(kern)
	lows := make([]int, len(queries))
	highs := make([]int, len(queries))
	heaps := make([]*nnheap.KHeap, len(queries))
	for i, q := range queries {
		qpd := norm(q)
		lows[i], highs[i] = blk.PivotDistWindow(0, blk.Len(), qpd-theta, qpd+theta)
		heaps[i] = nnheap.NewKHeap(k)
	}
	var sc vector.Scratch
	blk.NearestKBatchRanges(queries, lows, highs, vector.L2, heaps, &sc)
	var cbuf []nnheap.Candidate
	var nbuf []codec.Neighbor
	var sink int64
	for _, h := range heaps {
		cbuf = h.AppendSorted(cbuf[:0])
		nbuf = driver.AppendNeighbors(nbuf[:0], cbuf, true)
		sink += checksum(nbuf)
	}
	return sink, nil
}

// checksum folds a neighbor list — ids, order, AND distance bits — into
// an order-sensitive integer, so the scalar and block paths can be
// asserted to produce identical results, including the emit-time sqrt.
func checksum(nbs []codec.Neighbor) int64 {
	var s int64
	for i, nb := range nbs {
		s = s*31 + nb.ID*int64(i+1)
		s = s*31 + int64(math.Float64bits(nb.Dist))
	}
	return s
}
