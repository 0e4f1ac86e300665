// Package pgbj implements the paper's proposed kNN-join algorithms:
//
//   - PGBJ (§4–§5): the Partitioning-and-Grouping-Based Join. A
//     preprocessing step selects pivots from R; MapReduce job 1 Voronoi-
//     partitions R ∪ S and collects the summary tables TR/TS; the driver
//     groups R-partitions into one group per reducer (geometric or greedy
//     grouping); MapReduce job 2 routes each group's R objects and the
//     S replicas chosen by Theorem 6 to one reducer, which runs the
//     pruned join of Algorithm 3.
//   - PBJ (§6): the same pivot-based pruning without grouping, dropped
//     into the √N×√N block framework of H-BRJ, requiring a second
//     merge job.
//
// The phases are timed under the names Figure 6 uses: Pivot Selection,
// Data Partitioning, Index Merging, Partition Grouping, KNN Join.
package pgbj

import (
	"fmt"
	"sync"
	"time"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/grouping"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/pivot"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

// GroupStrategy selects how R-partitions are clustered into reducer
// groups (§5.2).
type GroupStrategy int

const (
	// Geometric is Algorithm 4 (pivot-distance based, load balanced).
	Geometric GroupStrategy = iota
	// Greedy minimizes the Equation-12 replication estimate.
	Greedy
)

// String returns "geometric" or "greedy".
func (g GroupStrategy) String() string {
	switch g {
	case Geometric:
		return "geometric"
	case Greedy:
		return "greedy"
	}
	return fmt.Sprintf("GroupStrategy(%d)", int(g))
}

// ParseGroupStrategy converts a name into a GroupStrategy.
func ParseGroupStrategy(s string) (GroupStrategy, error) {
	switch s {
	case "geometric", "geo", "":
		return Geometric, nil
	case "greedy", "gr":
		return Greedy, nil
	}
	return Geometric, fmt.Errorf("pgbj: unknown grouping strategy %q", s)
}

// Options configures a PGBJ or PBJ run.
type Options struct {
	K             int
	Metric        vector.Metric
	NumPivots     int
	PivotStrategy pivot.Strategy
	GroupStrategy GroupStrategy
	Seed          int64

	// NumGroups is the number of reducer groups; zero means the cluster's
	// node count (the paper's one-reducer-per-node configuration).
	NumGroups int

	// Ablation switches (not in the paper's interface; used by the
	// ablation benchmarks to quantify each pruning rule's contribution).
	DisableHyperplanePruning bool // skip Corollary 1 in the reducer
	DisableWindowPruning     bool // skip Theorem 2 in the reducer
	// DisableNearestFirstOrder visits S-partitions in partition-id order
	// instead of ascending pivot gap — ablating Algorithm 3's line-14
	// heuristic ("if a pivot is near to p_i, then its partition often
	// has higher probability of containing objects closer to r"), which
	// tightens θ early and powers the other two rules.
	DisableNearestFirstOrder bool
}

func (o Options) validate(cluster *mapreduce.Cluster) (Options, error) {
	if o.K <= 0 {
		return o, fmt.Errorf("pgbj: k must be positive, got %d", o.K)
	}
	if o.NumPivots <= 0 {
		return o, fmt.Errorf("pgbj: NumPivots must be positive, got %d", o.NumPivots)
	}
	if o.NumGroups <= 0 {
		// One group per node, but never more groups than partitions —
		// tiny inputs would otherwise fail in the grouping phase. An
		// explicitly set NumGroups is honored verbatim (and grouping
		// reports the error if it exceeds NumPivots).
		o.NumGroups = cluster.Nodes()
		if o.NumGroups > o.NumPivots {
			o.NumGroups = o.NumPivots
		}
	}
	return o, nil
}

// partitionSpec rebuilds the map-only Voronoi-partitioning job in a
// worker process: the Partitioner is reconstructed from the pivots and
// metric, which is all the map function consumes.
type partitionSpec struct {
	Name   string
	Inputs []string
	Output string
	Pivots []vector.Point
	Metric vector.Metric
}

var partitionKind = mapreduce.DefineKind("pgbj-partition", buildPartitionJob)

// partitionTask is job 1's task state: the pivots' Partitioner.
type partitionTask struct {
	pp *voronoi.Partitioner
}

func buildPartitionJob(s partitionSpec) *mapreduce.Job {
	task := &partitionTask{pp: voronoi.NewPartitioner(s.Pivots, s.Metric)}
	return &mapreduce.Job{
		Name:   s.Name,
		Input:  s.Inputs,
		Output: s.Output,
		Map:    task.partitionMap,
	}
}

// partitionMap tags one object of R or S with its nearest pivot
// (Figure 4).
func (task *partitionTask) partitionMap(ctx *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
	t, err := codec.DecodeTagged(rec)
	if err != nil {
		return err
	}
	// The task is charged the paper's |P| comparisons per object ("pairs",
	// the simulated work); what the pruned scan really evaluated is kept
	// beside it, never instead of it.
	part, d, evaluated := task.pp.AssignEvaluated(t.Point)
	n := int64(task.pp.NumPartitions())
	ctx.Counter("pairs", n)
	ctx.Counter(driver.AssignEvaluatedCounter, int64(evaluated))
	ctx.AddWork(n)
	t.Partition = int32(part)
	t.PivotDist = d
	emit(nil, codec.EncodeTagged(t))
	return nil
}

// joinSpec rebuilds MapReduce job 2 in a worker process: pivots (the
// Partitioner is reconstructed), the summary tables, the grouping
// products and the options — exactly what the map and reduce functions
// consume.
type joinSpec struct {
	Input, Output string
	Pivots        []vector.Point
	Summary       *voronoi.Summary
	Thetas        []float64
	GroupOf       []int
	GroupLBs      [][]float64
	Opts          Options
}

var joinKind = mapreduce.DefineKind("pgbj-join", buildJoinJob)

// joinTask is job 2's task state: the spec with its pivots rebuilt into
// a Partitioner.
type joinTask struct {
	joinSpec
	pp *voronoi.Partitioner
}

func buildJoinJob(s joinSpec) *mapreduce.Job {
	task := &joinTask{joinSpec: s, pp: voronoi.NewPartitioner(s.Pivots, s.Opts.Metric)}
	return &mapreduce.Job{
		Name:           "pgbj-join",
		Input:          []string{s.Input},
		Output:         s.Output,
		NumReducers:    s.Opts.NumGroups,
		Partition:      mapreduce.Uint32Partition,
		GroupKeyPrefix: codec.JoinKeyGroupPrefix,
		Map:            task.pgbjRouteMap,
		Reduce:         task.pgbjJoinReduce,
	}
}

// Run executes the full PGBJ pipeline on the cluster. rFile and sFile must
// contain Tagged records (dataset.ToDFS); outFile receives codec.Result
// records, one per object of R. Run consumes its inputs: once job 1 has
// committed, rFile and sFile are removed from the store, since job 2
// reads only job 1's output and they would otherwise stay resident
// through it.
func Run(cluster *mapreduce.Cluster, rFile, sFile, outFile string, opts Options) (*stats.Report, error) {
	opts, err := opts.validate(cluster)
	if err != nil {
		return nil, err
	}
	report := &stats.Report{
		Algorithm: "PGBJ-" + string(opts.PivotStrategy.String()[0]) + string(opts.GroupStrategy.String()[0]),
		K:         opts.K,
		Nodes:     cluster.Nodes(),
		RSize:     cluster.FS().Size(rFile),
		SSize:     cluster.FS().Size(sFile),
	}

	// ---- Phases 1–3: pivot selection, job 1, index merging ------------
	part, err := Partition(cluster, report, "pgbj-partition", rFile, sFile, outFile, opts)
	if err != nil {
		return nil, err
	}
	defer cluster.FS().Remove(part.File)
	pp, sum := part.Partitioner, part.Summary

	// ---- Phase 4: partition grouping ------------------------------------
	start := time.Now()
	thetas := grouping.Thetas(sum, pp)
	var groups *grouping.Result
	switch opts.GroupStrategy {
	case Geometric:
		groups, err = grouping.Geometric(pp, sum, opts.NumGroups)
	case Greedy:
		groups, err = grouping.Greedy(pp, sum, opts.NumGroups, thetas)
	default:
		err = fmt.Errorf("pgbj: unknown group strategy %v", opts.GroupStrategy)
	}
	if err != nil {
		return nil, err
	}
	groupLBs := grouping.GroupLBs(pp, sum, thetas, groups)
	report.AddPhase("Partition Grouping", time.Since(start))

	// ---- Phase 5: MapReduce job 2 — the kNN join -------------------------
	// Keys are codec.JoinKey composites: the 4-byte group prefix selects
	// the reducer, and the (src, partition, pivot-distance, id) suffix
	// secondary-sorts the group so every S partition streams into the
	// reducer already in SortByPivotDist order. Built through the kind
	// registry so a distributed cluster can rebuild it in workers.
	job := joinKind.New(joinSpec{
		Input:    part.File,
		Output:   outFile,
		Pivots:   pp.Pivots,
		Summary:  sum,
		Thetas:   thetas,
		GroupOf:  groups.GroupOf,
		GroupLBs: groupLBs,
		Opts:     opts,
	})
	js, err := driver.RunJob(cluster, report, "KNN Join", job)
	if err != nil {
		return nil, err
	}
	report.JoinSkew = js.ReduceSkew()
	return report, nil
}

// Partitioned is what PGBJ's first three phases hand the join: the
// pivots drawn from R, as the Voronoi partitioner over them; the TR/TS
// summary tables; and the name of job 1's output file, every object of
// R ∪ S tagged with its partition and pivot distance.
type Partitioned struct {
	Partitioner *voronoi.Partitioner
	Summary     *voronoi.Summary
	File        string
}

// Partition runs phases 1–3 of PGBJ, which PBJ and the range join share:
// it selects opts.NumPivots pivots from rFile with opts.PivotStrategy
// and opts.Seed (Pivot Selection), runs the Voronoi partitioning job,
// named job, over rFile and sFile into outFile+".partitioned" (Data
// Partitioning), and merges the summary tables for opts.K (Index
// Merging), charging each phase to rep. Once the job has committed,
// rFile and sFile are removed: the joins read only its output. The
// partitioned file is the caller's to remove.
func Partition(cluster *mapreduce.Cluster, rep *stats.Report, job, rFile, sFile, outFile string, opts Options) (*Partitioned, error) {
	pivots, err := selectPivots(cluster.FS(), rFile, opts, rep)
	if err != nil {
		return nil, err
	}
	pp := voronoi.NewPartitioner(pivots, opts.Metric)

	// Job 1: a map-only job that tags every object of R and S with its
	// nearest pivot (Figure 4), built through the kind registry so a
	// distributed cluster can rebuild it in workers.
	partFile := outFile + ".partitioned"
	sSize := cluster.FS().Size(sFile)
	if _, err := driver.RunJob(cluster, rep, "Data Partitioning", partitionKind.New(partitionSpec{
		Name: job, Inputs: []string{rFile, sFile}, Output: partFile, Pivots: pivots, Metric: opts.Metric,
	})); err != nil {
		return nil, err
	}
	cluster.FS().Remove(rFile)
	cluster.FS().Remove(sFile)

	sum, err := buildSummary(cluster.FS(), partFile, pp, opts.K, sSize, cluster.Nodes(), rep)
	if err != nil {
		cluster.FS().Remove(partFile)
		return nil, err
	}
	return &Partitioned{Partitioner: pp, Summary: sum, File: partFile}, nil
}

// selectPivots reads R and runs the configured pivot-selection strategy,
// charging its time and distance computations to the report.
func selectPivots(fs dfs.Store, rFile string, opts Options, report *stats.Report) ([]vector.Point, error) {
	start := time.Now()
	tagged, err := dataset.FromDFS(fs, rFile)
	if err != nil {
		return nil, err
	}
	objs := make([]codec.Object, len(tagged))
	for i, t := range tagged {
		objs[i] = t.Object
	}
	var distCount int64
	pivots, err := pivot.Select(opts.PivotStrategy, objs, opts.NumPivots, pivot.Options{
		Metric:    opts.Metric,
		Seed:      opts.Seed,
		DistCount: &distCount,
	})
	if err != nil {
		return nil, err
	}
	report.Pairs += distCount
	report.AddPhase("Pivot Selection", time.Since(start))
	return pivots, nil
}

// buildSummary is the index-merging phase: it folds the partitioned file
// into the TR/TS summary tables, processing DFS chunks on a bounded
// worker pool and merging the partial builders, exactly as the paper
// merges per-split statistics when job 1 completes. The pool bound
// matters on the disk-backed store: at most `workers` splits are
// resident at once, preserving the out-of-core backend's memory bound.
func buildSummary(fs dfs.Store, partFile string, pp *voronoi.Partitioner, k, sSize, workers int, report *stats.Report) (*voronoi.Summary, error) {
	start := time.Now()
	splits, err := fs.Splits(partFile)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > len(splits) {
		workers = len(splits)
	}
	builders := make([]*voronoi.SummaryBuilder, len(splits))
	errs := make([]error, len(splits))
	tasks := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				b := voronoi.NewSummaryBuilderAmong(pp.NumPartitions(), k, sSize)
				recs, err := splits[i].Load()
				if err != nil {
					errs[i] = err
					continue
				}
				for _, rec := range recs {
					t, err := codec.DecodeTagged(rec)
					if err != nil {
						errs[i] = err
						b = nil
						break
					}
					b.Add(t)
				}
				builders[i] = b
			}
		}()
	}
	for i := range splits {
		tasks <- i
	}
	close(tasks)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if len(builders) == 0 {
		return nil, fmt.Errorf("pgbj: partitioned file %q is empty", partFile)
	}
	root := builders[0]
	for _, b := range builders[1:] {
		root.Merge(b)
	}
	sum := root.Finalize()
	report.AddPhase("Index Merging", time.Since(start))
	return sum, nil
}

// pgbjRouteMap is the map function of job 2 (Algorithm 3 lines 3–11 plus
// the Theorem-6 group routing): R objects go to their group; S objects
// replicate to every group whose LB admits them. The JoinKey carries the
// record's tags, so the value is its coordinates alone, shared with the
// job-1 record rather than copied.
func (task *joinTask) pgbjRouteMap(ctx *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
	groupOf, groupLBs := task.GroupOf, task.GroupLBs
	t, coords, err := codec.PeekTagged(rec)
	if err != nil {
		return err
	}
	switch t.Src {
	case codec.FromR:
		emit(codec.JoinKey(groupOf[t.Partition], t), coords)
	case codec.FromS:
		row := groupLBs[t.Partition]
		for g, lb := range row {
			if t.PivotDist >= lb {
				ctx.Counter("replicas_s", 1)
				emit(codec.JoinKey(g, t), coords)
			}
		}
	}
	return nil
}

// PartRange is one Voronoi partition's rows inside a GroupBlock: the
// partition id and the half-open row range holding its objects.
type PartRange struct {
	ID     int32
	Lo, Hi int
}

// GroupBlock is one reduce group of a codec.JoinKey-keyed job decoded
// columnarly: every value of the group in a single vector.Block, plus
// the R and S partition segmentation as index ranges into it. The
// shuffle's composite-key sort delivers R objects first, then S,
// partitions ascending, and each S partition ascending by pivot distance
// — so the ranges are contiguous, both range lists are ascending by
// partition id, and every S range is already in voronoi.SortByPivotDist
// order without a reducer-side sort. Shared by PGBJ, PBJ and the range
// join, whose key layout these invariants are tied to.
type GroupBlock struct {
	Block  *vector.Block
	RParts []PartRange
	SParts []PartRange
}

// sRows returns the number of S rows in the block, the most candidates
// any of its R rows can have.
func (gb *GroupBlock) sRows() int {
	n := 0
	for _, sp := range gb.SParts {
		n += sp.Hi - sp.Lo
	}
	return n
}

// CollectGroupBlock streams one reducer group into a GroupBlock: one
// flat coordinate array for the whole group with partitions tracked as
// row ranges. Each record is a JoinKey, which holds the object's id,
// source, partition and pivot distance, and a value of its coordinates
// (codec.AppendKeyedToBlock). The first record stamps the block's
// dimensionality; the block is then sized once for the rest of the
// group (growToGroup), so the collection makes a constant number of
// allocations whatever the group's size. The block is prepared with
// vector.KernelAuto, so the reducer's candidate loops run on the tier
// the group's shape picks.
func CollectGroupBlock(values *mapreduce.Values) (*GroupBlock, error) {
	gb := &GroupBlock{Block: &vector.Block{}}
	var openSrc codec.Source
	var openPart int32
	for {
		key := values.Key()
		v, ok := values.Next()
		if !ok {
			break
		}
		src, part, err := codec.AppendKeyedToBlock(gb.Block, key, v)
		if err != nil {
			return nil, err
		}
		row := gb.Block.Len() - 1
		if row == 0 {
			growToGroup(gb.Block, values, len(key)+len(v))
		}
		ranges := &gb.RParts
		if src == codec.FromS {
			ranges = &gb.SParts
		}
		if len(*ranges) == 0 || src != openSrc || part != openPart {
			*ranges = append(*ranges, PartRange{ID: part, Lo: row})
			openSrc, openPart = src, part
		}
		(*ranges)[len(*ranges)-1].Hi = row + 1
	}
	gb.Block.Prepare(vector.KernelAuto)
	return gb, nil
}

// growToGroup gives a block holding a group's first record the exact
// capacity for the rest of the group. The merge stream's remaining
// record count bounds the group, and is exact for PGBJ, PBJ and the
// range join, whose reduce tasks each stream one group (NumReducers is
// the group count and Uint32Partition routes by group id). The bound is
// capped by the remaining payload bytes — every key and value of the
// block's dimensionality take recLen bytes — so a damaged run
// description cannot turn into a huge allocation. A smaller group
// leaves spare capacity; a larger one (never, for these joins) falls
// back to append's growth.
func growToGroup(b *vector.Block, values *mapreduce.Values, recLen int) {
	records, bytes := values.Remaining()
	n := b.Len() + int(min(records, bytes/int64(recLen)))
	b.IDs = append(make([]int64, 0, n), b.IDs...)
	b.PivotDist = append(make([]float64, 0, n), b.PivotDist...)
	b.Coords = append(make([]float64, 0, n*b.Dim), b.Coords...)
}

// pgbjJoinReduce is the reduce function of job 2: Algorithm 3 lines 12–25
// over one group of R-partitions and its replica set S_i.
func (task *joinTask) pgbjJoinReduce(ctx *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	gb, err := CollectGroupBlock(values)
	if err != nil {
		return err
	}
	joinPartitions(ctx, task.pp, task.Summary, task.Thetas, task.Opts, gb, emit)
	return nil
}

// Windows runs one step of the walk for a batch of R rows against S
// range sp, whose pivot is pj: for every row i it takes walks[i]'s
// decision and leaves the rows of sp to scan in [lows[i], highs[i]), an
// empty range when the cell is pruned. A row whose pivot gap already
// prunes the cell (voronoi.Walk.GapPrunes) skips |r_i,p_j|; the others
// compute it. It returns the pivot distances charged — one per row, own
// cell included, per the paper's Eq.-13 note — and those evaluated.
// Shared by the kNN and range reducers.
func (gb *GroupBlock) Windows(walks []voronoi.Walk, qs []vector.Point, sp PartRange, pj vector.Point, m vector.Metric, lows, highs []int) (charged, evaluated int64) {
	j := int(sp.ID)
	for i, q := range qs {
		lows[i], highs[i] = 0, 0
		if walks[i].GapPrunes(j) {
			continue
		}
		evaluated++
		if lo, hi, d := walks[i].Decide(j, m.Dist(q, pj)); d == voronoi.Scan {
			lows[i], highs[i] = gb.Block.PivotDistWindow(sp.Lo, sp.Hi, lo, hi)
		}
	}
	return int64(len(qs)), evaluated
}

// joinPartitions runs Algorithm 3's per-reducer join: every R object of
// the group block walks its S partition ranges (voronoi.Walk: the θ
// bound, Corollary-1 hyperplane pruning and Theorem-2 windows). It is
// shared by PGBJ (full S_i replica sets) and PBJ (block subsets of S).
// A row computes |r,p_j| only for the ranges its pivot gap does not
// already prune, and a batch stops at the first range past every row's
// GapLimit; the skipped distances are still charged to "pairs".
//
// The candidate loop runs on the block's fused kernels: Theorem-2
// windows are binary searches over the flat PivotDist slice
// (Block.PivotDistWindow), distances stay squared under L2 until the
// emit-time sqrt, and no per-candidate Point is ever allocated. The
// GroupBlock invariants (ranges ascending, S ranges pivot-distance
// sorted) come from the shuffle's composite-key secondary sort — see
// CollectGroupBlock — so no sorting happens here.
func joinPartitions(ctx *mapreduce.TaskContext, pp *voronoi.Partitioner, sum *voronoi.Summary,
	thetas []float64, opts Options, gb *GroupBlock, emit mapreduce.Emit) {

	blk := gb.Block
	squared := opts.Metric == vector.L2 // kernels defer the sqrt under L2

	// R rows are processed in query batches so each Theorem-2 window of
	// S is swept panel by panel across the whole batch (NearestKBatch-
	// Ranges) instead of once per row. Every row keeps its own heap and
	// its own walk, the S-partition visit order and the per-row decisions
	// depend only on state that evolves exactly as in the sequential
	// loop, so the emitted results are bit-identical — the batch only
	// changes which row's window touches an S panel next.
	const batchRows = 64
	heaps := make([]*nnheap.KHeap, batchRows)
	for i := range heaps {
		heaps[i] = nnheap.NewKHeapAmong(opts.K, gb.sRows())
	}
	qs := make([]vector.Point, batchRows)
	walks := make([]voronoi.Walk, batchRows)
	lows := make([]int, batchRows)
	highs := make([]int, batchRows)
	walk := voronoi.NewWalk(pp, sum)
	walk.NoHyperplane, walk.NoWindow = opts.DisableHyperplanePruning, opts.DisableWindowPruning

	order := make([]int, len(gb.SParts))
	gaps := make([]float64, len(gb.SParts))
	var sc vector.Scratch
	var cbuf []nnheap.Candidate
	var nbuf []codec.Neighbor
	var pairs, resultPairs, pivotCharged, pivotEvaluated int64
	for _, rp := range gb.RParts {
		ri := int(rp.ID)
		// Line 14: S ranges by ascending pivot gap to p_i, the same for
		// every row of the partition. The ablation leaves every gap at
		// zero, and equal gaps keep partition-id order.
		for p, sp := range gb.SParts {
			if !opts.DisableNearestFirstOrder {
				gaps[p] = pp.PivotDist(ri, int(sp.ID))
			}
		}
		voronoi.VisitOrder(order, gaps)
		for base := rp.Lo; base < rp.Hi; base += batchRows {
			nq := min(batchRows, rp.Hi-base)
			for i := 0; i < nq; i++ {
				qs[i] = blk.At(base + i)
				heaps[i].Reset()
				walks[i] = walk.Start(ri, blk.PivotDist[base+i], thetas[ri])
			}
			limit := voronoi.BatchGapLimit(walks[:nq])
			for x, p := range order {
				if voronoi.PastGapLimit(gaps[p], limit) {
					// Corollary 1 prunes this range and every later one
					// for every row; their distances are still charged.
					pivotCharged += int64(nq * (len(order) - x))
					break
				}
				sp := gb.SParts[p]
				charged, evaluated := gb.Windows(walks[:nq], qs[:nq], sp, pp.Pivots[sp.ID], opts.Metric, lows, highs)
				pivotCharged += charged
				pivotEvaluated += evaluated
				pairs += blk.NearestKBatchRanges(qs[:nq], lows[:nq], highs[:nq], opts.Metric, heaps[:nq], &sc)
				// θ is only read at the next partition, so one update per
				// partition suffices.
				for i := 0; i < nq; i++ {
					walks[i].Tighten(heaps[i])
				}
				limit = voronoi.BatchGapLimit(walks[:nq])
			}
			for i := 0; i < nq; i++ {
				cbuf = heaps[i].AppendSorted(cbuf[:0])
				nbuf = driver.AppendNeighbors(nbuf[:0], cbuf, squared)
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
}
