// Package rangejoin extends the paper's machinery from the kNN predicate
// to the range predicate of its Definition 3: the θ-range join
// R ⋈_θ S = {(r, s) | r ∈ R, s ∈ S, |r,s| ≤ θ}.
//
// The pipeline is PGBJ's with one substitution: where PGBJ derives a
// per-partition distance bound θ_i (Equation 6) before routing replicas,
// the range join's bound is the query radius θ itself, identical for
// every partition. Everything else carries over verbatim — Voronoi
// partitioning with summary tables (MapReduce job 1), geometric grouping
// of R-partitions, Theorem-6/Corollary-2 replica routing of S, and a
// reducer that prunes with Corollary 1 hyperplane tests and Theorem-2
// windows. Pivot selection, job 1 and index merging are PGBJ's own
// (pgbj.Partition), with a summary for k = 1. The package exists to demonstrate that claim of the paper's
// §2.3 ("we can answer range selection queries based on the following
// theorem") at full join scale, and because a distributed ε-range join
// is the building block of DBSCAN-style clustering.
package rangejoin

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"knnjoin/internal/codec"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/grouping"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/pgbj"
	"knnjoin/internal/pivot"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

// Options configures a range join.
type Options struct {
	// Radius is θ, the inclusive distance threshold. Required, ≥ 0.
	Radius float64
	// Metric is the distance measure; default L2.
	Metric vector.Metric
	// NumPivots is |P|. Required, positive.
	NumPivots int
	// PivotStrategy is the §4.1 selection strategy; default random.
	PivotStrategy pivot.Strategy
	// NumGroups is the number of reducer groups; zero means the cluster's
	// node count.
	NumGroups int
	// Seed fixes pivot selection.
	Seed int64
}

func (o Options) validate(cluster *mapreduce.Cluster) (Options, error) {
	if !(o.Radius >= 0) { // NaN fails every comparison
		return o, fmt.Errorf("rangejoin: radius must be a non-negative number, got %g", o.Radius)
	}
	if o.NumPivots <= 0 {
		return o, fmt.Errorf("rangejoin: NumPivots must be positive, got %d", o.NumPivots)
	}
	if o.NumGroups <= 0 {
		o.NumGroups = cluster.Nodes()
		if o.NumGroups > o.NumPivots {
			o.NumGroups = o.NumPivots
		}
	}
	return o, nil
}

// Run executes the range join on the cluster. rFile and sFile must
// contain Tagged records (dataset.ToDFS); outFile receives one
// codec.Result per R object that has at least one in-range partner,
// neighbors ascending by distance. Like pgbj.Run, Run consumes its
// inputs: rFile and sFile are removed once job 1 has committed.
func Run(cluster *mapreduce.Cluster, rFile, sFile, outFile string, opts Options) (*stats.Report, error) {
	opts, err := opts.validate(cluster)
	if err != nil {
		return nil, err
	}
	report := &stats.Report{
		Algorithm: "range-join",
		Nodes:     cluster.Nodes(),
		RSize:     cluster.FS().Size(rFile),
		SSize:     cluster.FS().Size(sFile),
	}

	// ---- Pivot selection, job 1, index merging: PGBJ's, at k = 1 -------
	// The kNN bound θ_i is never derived, so the summary needs only each
	// S-partition's nearest pivot distance.
	part, err := pgbj.Partition(cluster, report, "range-partition", rFile, sFile, outFile, pgbj.Options{
		K: 1, Metric: opts.Metric, NumPivots: opts.NumPivots,
		PivotStrategy: opts.PivotStrategy, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	defer cluster.FS().Remove(part.File)
	pp, sum := part.Partitioner, part.Summary

	// ---- Partition grouping ----------------------------------------------
	start := time.Now()
	groups, err := grouping.Geometric(pp, sum, opts.NumGroups)
	if err != nil {
		return nil, err
	}
	// The kNN join derives θ_i per partition; the range join's bound is
	// the radius itself, so every partition shares it.
	thetas := make([]float64, pp.NumPartitions())
	for i := range thetas {
		thetas[i] = opts.Radius
	}
	groupLBs := grouping.GroupLBs(pp, sum, thetas, groups)
	report.AddPhase("Partition Grouping", time.Since(start))

	// ---- Job 2: the range join -------------------------------------------
	// Composite JoinKeys: the group id picks the reducer, and the key
	// suffix streams each group's S partitions in SortByPivotDist order —
	// the shuffle's secondary sort replaces the reducer-side sort.
	job := joinKind.New(joinSpec{
		Input:    part.File,
		Output:   outFile,
		Pivots:   pp.Pivots,
		Summary:  sum,
		GroupOf:  groups.GroupOf,
		GroupLBs: groupLBs,
		Opts:     opts,
	})
	js, err := driver.RunJob(cluster, report, "Range Join", job)
	if err != nil {
		return nil, err
	}
	report.JoinSkew = js.ReduceSkew()
	return report, nil
}

// joinSpec rebuilds the range-join job in a worker process. The
// partitioner is carried as its pivots (NewPartitioner is deterministic)
// and the per-partition θ is implicit: every partition's bound is the
// query radius.
type joinSpec struct {
	Input, Output string
	Pivots        []vector.Point
	Summary       *voronoi.Summary
	GroupOf       []int
	GroupLBs      [][]float64
	Opts          Options
}

var joinKind = mapreduce.DefineKind("range-join", buildJoinJob)

// joinTask is the join job's task state: the spec with its pivots
// rebuilt into a Partitioner.
type joinTask struct {
	joinSpec
	pp *voronoi.Partitioner
}

func buildJoinJob(s joinSpec) *mapreduce.Job {
	task := &joinTask{joinSpec: s, pp: voronoi.NewPartitioner(s.Pivots, s.Opts.Metric)}
	return &mapreduce.Job{
		Name:           "range-join",
		Input:          []string{s.Input},
		Output:         s.Output,
		NumReducers:    s.Opts.NumGroups,
		Partition:      mapreduce.Uint32Partition,
		GroupKeyPrefix: codec.JoinKeyGroupPrefix,
		Map:            task.routeMap,
		Reduce:         task.joinReduce,
	}
}

// routeMap routes R objects to their group and replicates S objects to
// every group whose Corollary-2 bound (with θ in place of θ_i) admits
// them. The JoinKey holds the tags and the value the coordinates, as in
// PGBJ's job 2.
func (task *joinTask) routeMap(ctx *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
	groupOf, groupLBs := task.GroupOf, task.GroupLBs
	t, coords, err := codec.PeekTagged(rec)
	if err != nil {
		return err
	}
	switch t.Src {
	case codec.FromR:
		emit(codec.JoinKey(groupOf[t.Partition], t), coords)
	case codec.FromS:
		for g, lb := range groupLBs[t.Partition] {
			if t.PivotDist >= lb {
				ctx.Counter("replicas_s", 1)
				emit(codec.JoinKey(g, t), coords)
			}
		}
	}
	return nil
}

// joinReduce answers the range query of every r in the group against the
// group's replica set, with Corollary-1 and Theorem-2 pruning at radius θ.
func (task *joinTask) joinReduce(ctx *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	pp, sum, opts := task.pp, task.Summary, task.Opts

	// The composite-key stream arrives R before S with partition ids
	// ascending, and each S partition already in SortByPivotDist order —
	// the shuffle's secondary sort did the work this reducer used to do.
	// The group decodes into one columnar block on the scan tier its
	// shape picks; R rows run in query batches so each
	// Theorem-2 window of S is swept panel by panel across the whole
	// batch (RangeToBatchRanges). Each row's walk keeps θ at the fixed
	// radius — it is never tightened — so batching cannot change any
	// decision, and RangeTo compares true (sqrt'd) distances so the
	// radius edge matches Metric.Dist bit for bit on every tier. S
	// ranges are visited by ascending pivot gap, so a batch stops at the
	// first range whose gap prunes every row; each row's hits are sorted
	// under nnheap.Compare, a total order, so the visit order moves no
	// output byte.
	gb, err := pgbj.CollectGroupBlock(values)
	if err != nil {
		return err
	}
	blk := gb.Block

	const batchRows = 64
	qs := make([]vector.Point, batchRows)
	walks := make([]voronoi.Walk, batchRows)
	lows := make([]int, batchRows)
	highs := make([]int, batchRows)
	bufs := make([][]nnheap.Candidate, batchRows)
	walk := voronoi.NewWalk(pp, sum)
	order := make([]int, len(gb.SParts))
	gaps := make([]float64, len(gb.SParts))
	var sc vector.Scratch
	var nbuf []codec.Neighbor
	var pairs, resultPairs, pivotCharged, pivotEvaluated int64
	for _, rp := range gb.RParts {
		for p, sp := range gb.SParts {
			gaps[p] = pp.PivotDist(int(rp.ID), int(sp.ID))
		}
		voronoi.VisitOrder(order, gaps)
		for base := rp.Lo; base < rp.Hi; base += batchRows {
			nq := min(batchRows, rp.Hi-base)
			for i := 0; i < nq; i++ {
				qs[i] = blk.At(base + i)
				bufs[i] = bufs[i][:0]
				walks[i] = walk.Start(int(rp.ID), blk.PivotDist[base+i], opts.Radius)
			}
			limit := voronoi.BatchGapLimit(walks[:nq])
			for x, p := range order {
				if voronoi.PastGapLimit(gaps[p], limit) {
					pivotCharged += int64(nq * (len(order) - x))
					break
				}
				sp := gb.SParts[p]
				charged, evaluated := gb.Windows(walks[:nq], qs[:nq], sp, pp.Pivots[sp.ID], opts.Metric, lows, highs)
				pivotCharged += charged
				pivotEvaluated += evaluated
				blk.RangeToBatchRanges(qs[:nq], lows[:nq], highs[:nq], opts.Metric, opts.Radius, bufs[:nq], &pairs, &sc)
			}
			for i := 0; i < nq; i++ {
				cbuf := bufs[i]
				if len(cbuf) == 0 {
					continue
				}
				slices.SortFunc(cbuf, nnheap.Compare)
				nbuf = driver.AppendNeighbors(nbuf[:0], cbuf, false)
				resultPairs += int64(len(nbuf))
				emit(nil, codec.EncodeResult(codec.Result{RID: blk.IDs[base+i], Neighbors: nbuf}))
			}
		}
	}
	pairs += pivotCharged
	ctx.Counter("pairs", pairs)
	ctx.Counter("result_pairs", resultPairs)
	ctx.Counter(driver.ReducerPivotChargedCounter, pivotCharged)
	ctx.Counter(driver.ReducerPivotEvaluatedCounter, pivotEvaluated)
	ctx.AddWork(pairs)
	return nil
}

// BruteForce computes the exact range join centrally, for verification.
// Results are ordered by R object ID; objects with no in-range partner
// are omitted, matching Run's output contract.
func BruteForce(rObjs, sObjs []codec.Object, radius float64, m vector.Metric) []codec.Result {
	var out []codec.Result
	for _, r := range rObjs {
		var nbs []codec.Neighbor
		for _, s := range sObjs {
			if d := m.Dist(r.Point, s.Point); d <= radius {
				nbs = append(nbs, codec.Neighbor{ID: s.ID, Dist: d})
			}
		}
		if len(nbs) == 0 {
			continue
		}
		sort.Slice(nbs, func(a, b int) bool {
			if nbs[a].Dist != nbs[b].Dist {
				return nbs[a].Dist < nbs[b].Dist
			}
			return nbs[a].ID < nbs[b].ID
		})
		out = append(out, codec.Result{RID: r.ID, Neighbors: nbs})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].RID < out[b].RID })
	return out
}
