// Package vindex turns the paper's Voronoi partitioning machinery into a
// reusable in-memory index for online queries: build once over a dataset,
// then answer kNN and range queries with the same pruning rules the
// distributed reducers use (Corollary 1 hyperplane pruning, Theorem 2
// pivot-distance windows, and an Algorithm-1-style starting bound).
//
// This is the single-machine complement to the distributed join — the
// pattern iDistance [20] pioneered and the paper's §2.3 builds on — and
// it lets applications that preprocess a dataset with PGBJ reuse the same
// partitioning for ad-hoc queries.
package vindex

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"knnjoin/internal/codec"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/pivot"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

// Options configures index construction.
type Options struct {
	// Metric is the distance measure; zero value is L2.
	Metric vector.Metric
	// NumPivots controls partition granularity; zero picks ≈ 2·√n.
	NumPivots int
	// PivotStrategy selects §4.1's strategy; default random.
	PivotStrategy pivot.Strategy
	// Seed fixes pivot selection.
	Seed int64
	// BoundK sizes the per-partition kNN summary used for starting
	// bounds (TS's k smallest pivot distances). Queries with k ≤ BoundK
	// get tight Algorithm-1 starting bounds; larger k still works but
	// starts unbounded. Default 16.
	BoundK int
}

func (o Options) withDefaults(n int) Options {
	if o.NumPivots <= 0 {
		o.NumPivots = 2 * intSqrt(n)
	}
	if o.NumPivots < 1 {
		o.NumPivots = 1
	}
	if o.NumPivots > n {
		o.NumPivots = n
	}
	if o.BoundK <= 0 {
		o.BoundK = 16
	}
	return o
}

func intSqrt(n int) int {
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}

// Index is an immutable pivot-partitioned index over a dataset. After
// Build (or Load) returns, queries never mutate the Index, so any number
// of goroutines may call KNN, Range, and the *WithStats variants on one
// shared Index concurrently.
type Index struct {
	pp  *voronoi.Partitioner
	sum *voronoi.Summary
	// blocks holds S, once: one columnar vector.Block per partition, rows
	// in pivot-distance order, so every query — kNN and range — runs on
	// the tiered kernels the joins use, and Save writes the file from
	// them.
	blocks []*vector.Block
	size   int
	opts   Options
}

// Stats reports the work one query performed. The accounting that used
// to accumulate on a shared Index field (and made concurrent queries a
// data race) is instead returned per call, keeping queries side-effect
// free.
type Stats struct {
	// DistComputations counts distance evaluations — object–pivot
	// probes and object–object verifications — the paper's selectivity
	// bookkeeping (Equation 13).
	DistComputations int64
	// PartitionsScanned counts Voronoi cells whose Theorem-2 window was
	// actually examined; PartitionsPruned counts cells skipped wholesale
	// by Corollary 1 or an empty window. KNN queries fill both; Range
	// reports only DistComputations.
	PartitionsScanned int
	// PartitionsPruned counts cells skipped without touching objects.
	PartitionsPruned int
}

// Add folds another query's stats into s, for callers aggregating
// across a batch of queries.
func (s *Stats) Add(o Stats) {
	s.DistComputations += o.DistComputations
	s.PartitionsScanned += o.PartitionsScanned
	s.PartitionsPruned += o.PartitionsPruned
}

// Build constructs an index over objs. The objects are copied into
// per-partition storage; objs may be reused afterwards. Objects must
// share one dimensionality and have finite coordinates.
//
// The build runs on GOMAXPROCS goroutines and is deterministic whatever
// that number: objects are assigned to their nearest pivots in
// contiguous chunks, bucketed into partitions in input order, and the
// partitions are then sorted (a total order: pivot distance, then ID),
// summarised and turned into blocks independently of each other.
func Build(objs []codec.Object, opts Options) (*Index, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("vindex: cannot build over an empty dataset")
	}
	if _, err := codec.CheckObjects(objs, -1); err != nil {
		return nil, fmt.Errorf("vindex: %w", err)
	}
	opts = opts.withDefaults(len(objs))
	pivots, err := pivot.Select(opts.PivotStrategy, objs, opts.NumPivots, pivot.Options{
		Metric: opts.Metric,
		Seed:   opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	pp := voronoi.NewPartitioner(pivots, opts.Metric)
	parts := partition(pp, objs)

	// Each sorted partition carries its own TS row: L first, U last, the
	// BoundK smallest pivot distances in front. The rows equal what a
	// voronoi.SummaryBuilder fed every object would finalize to, empty
	// cells (L=+Inf, U=−Inf) and the unused TR side included.
	sum := &voronoi.Summary{
		K: opts.BoundK,
		R: make([]voronoi.RSummary, len(parts)),
		S: make([]voronoi.SSummary, len(parts)),
	}
	blocks := make([]*vector.Block, len(parts))
	errs := make([]error, len(parts))
	forEach(len(parts), func(j int) {
		part := parts[j]
		voronoi.SortByPivotDist(part)
		sum.R[j] = voronoi.RSummary{L: math.Inf(1), U: math.Inf(-1)}
		sum.S[j] = voronoi.SSummary{L: math.Inf(1), U: math.Inf(-1)}
		if len(part) > 0 {
			kd := make([]float64, min(opts.BoundK, len(part)))
			for i := range kd {
				kd[i] = part[i].PivotDist
			}
			sum.S[j] = voronoi.SSummary{Count: len(part), L: part[0].PivotDist, U: part[len(part)-1].PivotDist, KDists: kd}
		}
		blocks[j], errs[j] = blockFromPart(part)
	})
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("vindex: partition %d: %w", j, err)
		}
	}
	return &Index{pp: pp, sum: sum, blocks: blocks, size: len(objs), opts: opts}, nil
}

// partition is voronoi.Partitioner.Partition on every core: the
// nearest-pivot assignment — nearly all of a build — runs in contiguous
// chunks, and one pass in input order then buckets the objects, so each
// partition lists its objects exactly as the serial loop would.
func partition(pp *voronoi.Partitioner, objs []codec.Object) [][]codec.Tagged {
	type cell struct {
		part int32
		dist float64
	}
	const chunk = 2048
	cells := make([]cell, len(objs))
	counts := make([]int, pp.NumPartitions()+1)
	forEach((len(objs)+chunk-1)/chunk, func(c int) {
		for i := c * chunk; i < min((c+1)*chunk, len(objs)); i++ {
			part, d := pp.Assign(objs[i].Point, nil)
			cells[i] = cell{int32(part), d}
		}
	})
	for _, c := range cells {
		counts[c.part+1]++
	}
	for j := 1; j < len(counts); j++ {
		counts[j] += counts[j-1] // counts[j] is now where partition j starts
	}
	all := make([]codec.Tagged, len(objs))
	parts := make([][]codec.Tagged, pp.NumPartitions())
	for j := range parts {
		parts[j] = all[counts[j]:counts[j]:counts[j+1]]
	}
	for i, c := range cells {
		parts[c.part] = append(parts[c.part], codec.Tagged{
			Object: objs[i], Src: codec.FromS, Partition: c.part, PivotDist: c.dist,
		})
	}
	return parts
}

// forEach calls fn(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines, handing the indexes out in order, and returns when all
// calls have.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// blockFromPart assembles one partition's columnar block, sized once
// for its rows, on the scan tier its shape picks. The rows must already be sorted by pivot
// distance so PivotDistWindow stays valid on the block.
func blockFromPart(part []codec.Tagged) (*vector.Block, error) {
	blk := &vector.Block{}
	if len(part) > 0 {
		dim := part[0].Point.Dim()
		blk = &vector.Block{
			Dim:       dim,
			IDs:       make([]int64, 0, len(part)),
			PivotDist: make([]float64, 0, len(part)),
			Coords:    make([]float64, 0, len(part)*dim),
		}
	}
	for _, t := range part {
		if err := blk.Append(t.ID, t.PivotDist, t.Point); err != nil {
			return nil, err
		}
	}
	blk.Prepare(vector.KernelAuto)
	return blk, nil
}

// Len returns the number of indexed objects.
func (ix *Index) Len() int { return ix.size }

// NumPartitions returns the pivot count.
func (ix *Index) NumPartitions() int { return ix.pp.NumPartitions() }

// Dim returns the dimensionality of the indexed points.
func (ix *Index) Dim() int { return ix.pp.Pivots[0].Dim() }

// KNN returns the k nearest indexed objects to q in ascending distance
// order (distance ties by ID). Fewer than k are returned only when the
// index holds fewer objects. It is a thin wrapper over KNNWithStats for
// callers that do not need the per-query accounting.
func (ix *Index) KNN(q vector.Point, k int) []nnheap.Candidate {
	res, _ := ix.KNNWithStats(q, k)
	return res
}

// KNNWithStats is KNN plus the per-query work accounting. It performs no
// writes to the Index, so concurrent calls on one shared Index are safe.
//
// The walk is a composition of the exported pieces in route.go —
// StartKNN, then one KNNStep per partition in visit order — so the
// sharded router (internal/shard) replays the identical computation
// across processes.
func (ix *Index) KNNWithStats(q vector.Point, k int) ([]nnheap.Candidate, Stats) {
	var st Stats
	if k <= 0 {
		return nil, st
	}
	w, order, gaps := ix.StartKNN(q, k, &st.DistComputations)
	heap := nnheap.NewKHeapAmong(k, ix.size)
	var sc vector.Scratch
	for _, j := range order {
		ix.KNNStep(&w, j, q, gaps[j], heap, &sc, &st)
	}
	return ix.FinishKNN(heap), st
}

// Range returns all indexed objects within radius of q, in ID order. It
// is a thin wrapper over RangeWithStats.
func (ix *Index) Range(q vector.Point, radius float64) []codec.Object {
	res, _ := ix.RangeWithStats(q, radius)
	return res
}

// RangeWithStats is Range plus the per-query work accounting: the walk of
// RangeWindows, then a RangeStep per window. Like KNNWithStats it
// performs no writes to the Index.
func (ix *Index) RangeWithStats(q vector.Point, radius float64) ([]codec.Object, Stats) {
	var st Stats
	var out []codec.Object
	for _, win := range ix.RangeWindows(q, radius, &st.DistComputations) {
		var rows int
		out, rows = ix.RangeStep(win.J, q, win.Lo, win.Hi, radius, out)
		st.DistComputations += int64(rows)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, st
}
