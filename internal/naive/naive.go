// Package naive provides the two reference join implementations the paper
// measures everything against conceptually:
//
//   - BruteForce: the centralized O(|R|·|S|) nested-loop kNN join. Every
//     distributed algorithm in this repository is verified against it.
//   - Broadcast: the "basic strategy" of §3 — R is split into N disjoint
//     subsets, the entire S is shipped to every reducer, shuffle cost
//     |R| + N·|S|. It is correct but expensive, which is the paper's
//     motivation for PGBJ.
package naive

import (
	"fmt"
	"runtime"
	"sync"

	"knnjoin/internal/codec"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
)

// BruteForce computes the exact kNN join of R and S on one machine with a
// parallel nested loop. It returns results ordered by R object ID and the
// number of distance computations performed.
func BruteForce(rObjs, sObjs []codec.Object, k int, m vector.Metric) ([]codec.Result, int64) {
	if k <= 0 || len(sObjs) == 0 {
		return nil, 0
	}
	out := make([]codec.Result, len(rObjs))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (len(rObjs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(rObjs) {
			break
		}
		hi := lo + chunk
		if hi > len(rObjs) {
			hi = len(rObjs)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			heap := nnheap.NewKHeapAmong(k, len(sObjs))
			for i := lo; i < hi; i++ {
				heap.Reset()
				r := rObjs[i]
				for _, s := range sObjs {
					heap.Push(nnheap.Candidate{ID: s.ID, Dist: m.Dist(r.Point, s.Point)})
				}
				out[i] = codec.Result{RID: r.ID, Neighbors: toNeighbors(heap.Sorted())}
			}
		}(lo, hi)
	}
	wg.Wait()
	driver.SortResults(out)
	return out, int64(len(rObjs)) * int64(len(sObjs))
}

// toNeighbors converts heap candidates into result neighbors.
func toNeighbors(cands []nnheap.Candidate) []codec.Neighbor {
	nbs := make([]codec.Neighbor, len(cands))
	for i, c := range cands {
		nbs[i] = codec.Neighbor{ID: c.ID, Dist: c.Dist}
	}
	return nbs
}

// BroadcastOptions configures the basic strategy.
type BroadcastOptions struct {
	K      int
	Metric vector.Metric
}

// Broadcast runs the §3 basic strategy on the cluster: one MapReduce job
// where each r is routed to one of N reducers and every s is replicated to
// all N. Input files must contain Tagged records (see dataset.ToDFS); the
// output file holds codec.Result records.
func Broadcast(cluster *mapreduce.Cluster, rFile, sFile, outFile string, opts BroadcastOptions) (*stats.Report, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("naive: k must be positive, got %d", opts.K)
	}
	n := cluster.Nodes()
	report := &stats.Report{
		Algorithm: "basic",
		K:         opts.K,
		Nodes:     n,
		RSize:     cluster.FS().Size(rFile),
		SSize:     cluster.FS().Size(sFile),
	}

	job := broadcastKind.New(broadcastSpec{
		RFile:  rFile,
		SFile:  sFile,
		Output: outFile,
		Nodes:  n,
		Opts:   opts,
	})
	js, err := driver.RunJob(cluster, report, "KNN Join", job)
	if err != nil {
		return nil, err
	}
	report.JoinSkew = js.ReduceSkew()
	return report, nil
}

// broadcastSpec rebuilds the broadcast job in a worker process. It is
// also the job's task state: the map and reduce functions are its
// methods.
type broadcastSpec struct {
	RFile, SFile string
	Output       string
	Nodes        int
	Opts         BroadcastOptions
}

var broadcastKind = mapreduce.DefineKind("broadcast-join", buildBroadcastJob)

func buildBroadcastJob(s broadcastSpec) *mapreduce.Job {
	return &mapreduce.Job{
		Name:           "broadcast-join",
		Input:          []string{s.RFile, s.SFile},
		Output:         s.Output,
		NumReducers:    s.Nodes,
		Partition:      mapreduce.Uint32Partition,
		GroupKeyPrefix: codec.RegionKeyGroupPrefix,
		Map:            s.broadcastMap,
		Reduce:         s.broadcastReduce,
	}
}

// broadcastMap hashes each r to one reducer and replicates every s to
// all of them — the shuffle whose N·|S| term motivates PGBJ.
func (s *broadcastSpec) broadcastMap(ctx *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
	n := s.Nodes
	t, err := codec.DecodeTagged(rec)
	if err != nil {
		return err
	}
	switch t.Src {
	case codec.FromR:
		emit(codec.RegionKey(int(((t.ID%int64(n))+int64(n))%int64(n)), t), rec)
	case codec.FromS:
		ctx.Counter("replicas_s", int64(n))
		for i := 0; i < n; i++ {
			emit(codec.RegionKey(i, t), rec)
		}
	}
	return nil
}

func (s *broadcastSpec) broadcastReduce(ctx *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	opts := s.Opts
	rBlk, sBlk, err := driver.CollectRSBlocks(values)
	if err != nil {
		return err
	}
	joinBlocksKNN(ctx, rBlk, sBlk, opts.K, opts.Metric, emit)
	return nil
}

// joinBatchRows is the R-row batch width of joinBlocksKNN: enough
// queries to amortize streaming an S panel across the batch, few enough
// that the per-query heaps stay cache-resident.
const joinBatchRows = 64

// joinBlocksKNN emits one Result per R row — the row's k nearest S rows
// — sweeping S in cache-sized panels across batches of R rows via the
// query-batched kernels, a full rBlk × sBlk nested loop: each S panel
// is loaded once per batch of queries instead of once per query, and the
// per-query results are bit-identical to the sequential NearestK loop.
// It counts the scanned pairs ("pairs", also the task's work) and the
// emitted neighbors ("result_pairs") on ctx.
func joinBlocksKNN(ctx *mapreduce.TaskContext, rBlk, sBlk *vector.Block, k int, m vector.Metric, emit mapreduce.Emit) {
	squared := m == vector.L2
	var heaps []*nnheap.KHeap
	var qs []vector.Point
	var cbuf []nnheap.Candidate
	var nbuf []codec.Neighbor
	var pairs, resultPairs int64
	for base := 0; base < rBlk.Len(); base += joinBatchRows {
		end := base + joinBatchRows
		if end > rBlk.Len() {
			end = rBlk.Len()
		}
		qs = qs[:0]
		for row := base; row < end; row++ {
			qs = append(qs, rBlk.At(row))
		}
		for len(heaps) < len(qs) {
			heaps = append(heaps, nnheap.NewKHeapAmong(k, sBlk.Len()))
		}
		for _, h := range heaps[:len(qs)] {
			h.Reset()
		}
		pairs += sBlk.NearestKBatch(qs, m, heaps[:len(qs)])
		for i, row := 0, base; row < end; i, row = i+1, row+1 {
			cbuf = heaps[i].AppendSorted(cbuf[:0])
			nbuf = driver.AppendNeighbors(nbuf[:0], cbuf, squared)
			resultPairs += int64(len(nbuf))
			emit(nil, codec.EncodeResult(codec.Result{RID: rBlk.IDs[row], Neighbors: nbuf}))
		}
	}
	ctx.Counter("pairs", pairs)
	ctx.Counter("result_pairs", resultPairs)
	ctx.AddWork(pairs)
}
