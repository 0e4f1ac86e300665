package pgbj

import (
	"math"

	"knnjoin/internal/codec"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/hbrj"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

// RunPBJ executes PBJ (§6): pivot-based partitioning and pruning inside
// the √N×√N block framework of H-BRJ. Compared to PGBJ it skips the
// grouping phase; each reducer joins one (R-block, S-block) pair with a
// bound θ derived only from the S objects it received, and an extra
// MapReduce job merges the per-block partial results. Like Run, it
// removes rFile and sFile once job 1 has committed.
func RunPBJ(cluster *mapreduce.Cluster, rFile, sFile, outFile string, opts Options) (*stats.Report, error) {
	opts, err := opts.validate(cluster)
	if err != nil {
		return nil, err
	}
	report := &stats.Report{
		Algorithm: "PBJ",
		K:         opts.K,
		Nodes:     cluster.Nodes(),
		RSize:     cluster.FS().Size(rFile),
		SSize:     cluster.FS().Size(sFile),
	}

	// Phases 1–3 are identical to PGBJ: pivots, partitioning, summary.
	part, err := Partition(cluster, report, "pgbj-partition", rFile, sFile, outFile, opts)
	if err != nil {
		return nil, err
	}
	defer cluster.FS().Remove(part.File)

	// Block join: Voronoi partitions are hashed into √N blocks per
	// dataset; reducer (a,b) joins R-block a against S-block b with the
	// pivot-based pruning of Algorithm 3 under a locally derived θ.
	b := hbrj.Blocks(cluster.Nodes())
	partialFile := outFile + ".partial"
	// Composite JoinKeys: the block id is the grouping prefix, and the
	// suffix streams each block's S partitions to the reducer already
	// sorted by pivot distance (the order localThetas and the Theorem-2
	// windows need).
	job := pbjKind.New(pbjSpec{
		Input:   part.File,
		Output:  partialFile,
		Pivots:  part.Partitioner.Pivots,
		Summary: part.Summary,
		Blocks:  b,
		Opts:    opts,
	})
	js, err := driver.RunJob(cluster, report, "KNN Join", job)
	if err != nil {
		return nil, err
	}
	report.JoinSkew = js.ReduceSkew()

	_, err = driver.RunJob(cluster, report, "Result Merging", hbrj.MergeJob(partialFile, outFile, opts.K))
	cluster.FS().Remove(partialFile)
	if err != nil {
		return nil, err
	}
	return report, nil
}

// pbjSpec rebuilds the PBJ block-join job in a worker process.
type pbjSpec struct {
	Input, Output string
	Pivots        []vector.Point
	Summary       *voronoi.Summary
	Blocks        int
	Opts          Options
}

var pbjKind = mapreduce.DefineKind("pbj-block-join", buildPBJJob)

// pbjTask is the block-join job's task state: the spec with its pivots
// rebuilt into a Partitioner.
type pbjTask struct {
	pbjSpec
	pp *voronoi.Partitioner
}

func buildPBJJob(s pbjSpec) *mapreduce.Job {
	task := &pbjTask{pbjSpec: s, pp: voronoi.NewPartitioner(s.Pivots, s.Opts.Metric)}
	return &mapreduce.Job{
		Name:           "pbj-block-join",
		Input:          []string{s.Input},
		Output:         s.Output,
		NumReducers:    s.Blocks * s.Blocks,
		Partition:      mapreduce.Uint32Partition,
		GroupKeyPrefix: codec.JoinKeyGroupPrefix,
		Map:            task.pbjRouteMap,
		Reduce:         task.pbjJoinReduce,
	}
}

// pbjRouteMap replicates each object to its row or column of the √N×√N
// block grid: R-partition blocks join every S block and vice versa. As
// in PGBJ's job 2, the JoinKey holds the tags and the value the
// coordinates.
func (task *pbjTask) pbjRouteMap(ctx *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
	b := task.Blocks
	t, coords, err := codec.PeekTagged(rec)
	if err != nil {
		return err
	}
	blk := int(t.Partition) % b
	switch t.Src {
	case codec.FromR:
		for col := 0; col < b; col++ {
			emit(codec.JoinKey(blk*b+col, t), coords)
		}
	case codec.FromS:
		ctx.Counter("replicas_s", int64(b))
		for a := 0; a < b; a++ {
			emit(codec.JoinKey(a*b+blk, t), coords)
		}
	}
	return nil
}

// pbjJoinReduce joins one (R-block, S-block) pair. The bound θ for each
// R-partition is derived with Algorithm 1 restricted to the S-partitions
// this reducer received — the paper's "loose distance bound" that makes
// PBJ slower than PGBJ (§6.2).
func (task *pbjTask) pbjJoinReduce(ctx *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	pp, sum, opts := task.pp, task.Summary, task.Opts
	// The shuffle's composite-key sort already delivers S partitions in
	// SortByPivotDist order and the partition ranges ascending.
	gb, err := CollectGroupBlock(values)
	if err != nil {
		return err
	}
	thetas := localThetas(pp, sum, opts.K, gb)
	joinPartitions(ctx, pp, sum, thetas, opts, gb, emit)
	return nil
}

// localThetas runs Algorithm 1 against only the received S-partitions:
// for R-partition i, θ_i is voronoi.KNNBound over the local S ranges,
// whose pivot-distance lists are their first k rows — the block keeps
// each range sorted by pivot distance.
func localThetas(pp *voronoi.Partitioner, sum *voronoi.Summary, k int, gb *GroupBlock) []float64 {
	thetas := make([]float64, pp.NumPartitions())
	for i := range thetas {
		thetas[i] = math.Inf(1)
	}
	sRows := gb.sRows()
	for _, rp := range gb.RParts {
		thetas[rp.ID] = voronoi.KNNBound(k, sRows, sum.R[rp.ID].U, len(gb.SParts), func(p int) (float64, []float64) {
			sp := gb.SParts[p]
			return pp.PivotDist(int(rp.ID), int(sp.ID)), gb.Block.PivotDist[sp.Lo:min(sp.Lo+k, sp.Hi)]
		})
	}
	return thetas
}
