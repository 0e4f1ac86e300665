// Package hbrj implements H-BRJ, the comparison system of the paper's
// evaluation (Zhang et al., EDBT'12, as described in §3 and §6): R and S
// are split into √N random blocks each; every (R-block, S-block) pair is
// joined by one of N reducers, which bulk-loads an R-tree over its S-block
// and probes it for each r; a second MapReduce job merges the √N partial
// kNN lists per object into the final result.
//
// Its shuffle cost is √N·(|R|+|S|) for the block job plus √N·k·|R| for the
// merge job, and its per-reducer work has no pivot-based pruning — the two
// costs PGBJ is designed to beat.
package hbrj

import (
	"fmt"
	"sort"

	"knnjoin/internal/codec"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/rtree"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
)

// Options configures an H-BRJ run.
type Options struct {
	K      int
	Metric vector.Metric
	// Fanout is the per-node capacity of the reducers' R-trees; zero
	// selects rtree.DefaultFanout.
	Fanout int
}

// Blocks returns √N rounded down (at least 1): the number of blocks per
// dataset for a cluster of n nodes, as the paper prescribes.
func Blocks(n int) int {
	b := 1
	for (b+1)*(b+1) <= n {
		b++
	}
	return b
}

// blockOf maps an object ID to one of b random blocks; IDs may be
// negative, so the remainder is normalized.
func blockOf(id int64, b int) int {
	return int(((id % int64(b)) + int64(b))) % b
}

// Run executes H-BRJ: the block join job followed by the merge job.
// rFile and sFile must contain Tagged records; outFile receives one
// codec.Result per R object.
func Run(cluster *mapreduce.Cluster, rFile, sFile, outFile string, opts Options) (*stats.Report, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("hbrj: k must be positive, got %d", opts.K)
	}
	b := Blocks(cluster.Nodes())
	report := &stats.Report{
		Algorithm: "H-BRJ",
		K:         opts.K,
		Nodes:     cluster.Nodes(),
		RSize:     cluster.FS().Size(rFile),
		SSize:     cluster.FS().Size(sFile),
	}

	partialFile := outFile + ".partial"
	job := blockJoinKind.New(blockJoinSpec{
		RFile:  rFile,
		SFile:  sFile,
		Output: partialFile,
		Blocks: b,
		Opts:   opts,
	})
	js, err := driver.RunJob(cluster, report, "Block Join", job)
	if err != nil {
		return nil, err
	}
	report.JoinSkew = js.ReduceSkew()

	_, err = driver.RunJob(cluster, report, "Result Merging", MergeJob(partialFile, outFile, opts.K))
	cluster.FS().Remove(partialFile)
	if err != nil {
		return nil, err
	}
	return report, nil
}

// blockJoinSpec rebuilds the block-join job in a worker process. It is
// also the job's task state: the map and reduce functions are its
// methods, reading the blocking factor and options from it.
type blockJoinSpec struct {
	RFile, SFile string
	Output       string
	Blocks       int
	Opts         Options
}

var blockJoinKind = mapreduce.DefineKind("hbrj-block-join", buildBlockJoinJob)

func buildBlockJoinJob(s blockJoinSpec) *mapreduce.Job {
	return &mapreduce.Job{
		Name:           "hbrj-block-join",
		Input:          []string{s.RFile, s.SFile},
		Output:         s.Output,
		NumReducers:    s.Blocks * s.Blocks,
		Partition:      mapreduce.Uint32Partition,
		GroupKeyPrefix: codec.RegionKeyGroupPrefix,
		Map:            s.blockRouteMap,
		Reduce:         s.blockJoinReduce,
	}
}

// blockRouteMap replicates each object to its row or column of the b×b
// reducer grid.
func (s *blockJoinSpec) blockRouteMap(ctx *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
	b := s.Blocks
	t, err := codec.DecodeTagged(rec)
	if err != nil {
		return err
	}
	switch t.Src {
	case codec.FromR:
		// R-block a joins every S-block: reducers (a, 0..b-1).
		a := blockOf(t.ID, b)
		for col := 0; col < b; col++ {
			emit(codec.RegionKey(a*b+col, t), rec)
		}
	case codec.FromS:
		col := blockOf(t.ID, b)
		ctx.Counter("replicas_s", int64(b))
		for a := 0; a < b; a++ {
			emit(codec.RegionKey(a*b+col, t), rec)
		}
	}
	return nil
}

func (s *blockJoinSpec) blockJoinReduce(ctx *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	opts := s.Opts
	// Columnar decode; the R-tree's leaf points are views into the
	// S block's flat backing store, so the bulk load copies no
	// coordinates and the group costs a constant number of decode
	// allocations.
	rBlk, sBlk, err := driver.CollectRSBlocks(values)
	if err != nil {
		return err
	}
	tree := rtree.Bulk(codec.BlockObjects(sBlk), rtree.Options{Metric: opts.Metric, Fanout: opts.Fanout})
	var nbuf []codec.Neighbor
	for row := 0; row < rBlk.Len(); row++ {
		cands := tree.KNN(rBlk.At(row), opts.K)
		nbuf = nbuf[:0]
		for _, c := range cands {
			nbuf = append(nbuf, codec.Neighbor{ID: c.ID, Dist: c.Dist})
		}
		emit(nil, codec.EncodeResult(codec.Result{RID: rBlk.IDs[row], Neighbors: nbuf}))
	}
	ctx.Counter("pairs", tree.DistCount)
	ctx.AddWork(tree.DistCount)
	return nil
}

// MergeJob builds the second MapReduce job shared by H-BRJ, PBJ and
// H-zkNNJ: it groups partial kNN lists
// by R object — keyed by the object id's order-preserving binary
// encoding, so each reducer emits its share in ascending-RID order (ids
// are hash-scattered across reducers, so the concatenated file is only
// per-reducer sorted) — and keeps the k global best. The input file
// holds codec.Result records; so does the output.
func MergeJob(inFile, outFile string, k int) *mapreduce.Job {
	return mergeKind.New(mergeSpec{Input: inFile, Output: outFile, K: k})
}

// mergeSpec rebuilds the merge job in a worker process; its K is the
// reduce function's.
type mergeSpec struct {
	Input, Output string
	K             int
}

var mergeKind = mapreduce.DefineKind("knn-merge", buildMergeJob)

func buildMergeJob(s mergeSpec) *mapreduce.Job {
	return &mapreduce.Job{
		Name:   "knn-merge",
		Input:  []string{s.Input},
		Output: s.Output,
		Map:    mergeMap,
		Reduce: s.mergeReduce,
	}
}

func mergeMap(_ *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
	res, err := codec.DecodeResult(rec)
	if err != nil {
		return err
	}
	emit(codec.Int64Key(res.RID), rec)
	return nil
}

func (s *mergeSpec) mergeReduce(ctx *mapreduce.TaskContext, key []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	k := s.K
	rid := codec.KeyInt64(key)
	// Partial lists may overlap (e.g. H-zkNNJ finds the same s
	// under several shifts); a kNN list is a set, so dedupe by
	// neighbor ID before ranking.
	best := make(map[int64]float64)
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		res, err := codec.DecodeResult(v)
		if err != nil {
			return err
		}
		for _, nb := range res.Neighbors {
			if d, ok := best[nb.ID]; !ok || nb.Dist < d {
				best[nb.ID] = nb.Dist
			}
		}
	}
	ids := make([]int64, 0, len(best))
	for id := range best {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	heap := nnheap.NewKHeapAmong(k, len(ids))
	for _, id := range ids {
		heap.Push(nnheap.Candidate{ID: id, Dist: best[id]})
	}
	cands := heap.Sorted()
	nbs := make([]codec.Neighbor, len(cands))
	for i, c := range cands {
		nbs[i] = codec.Neighbor{ID: c.ID, Dist: c.Dist}
	}
	ctx.Counter("result_pairs", int64(len(nbs)))
	emit(nil, codec.EncodeResult(codec.Result{RID: rid, Neighbors: nbs}))
	return nil
}
