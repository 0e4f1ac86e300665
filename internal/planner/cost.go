package planner

import (
	"fmt"
	"math"

	"knnjoin/internal/codec"
	"knnjoin/internal/grouping"
	"knnjoin/internal/hbrj"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/pgbj"
	"knnjoin/internal/pivot"
	"knnjoin/internal/stats"
	"knnjoin/internal/theta"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

// Cost weights, in nanosecond-like units. The absolute values are rough
// calibrations of this repository's kernels on commodity hardware; only
// their ratios matter, because the planner ranks plans rather than
// forecasting wall clocks. The plan benchmark suite
// (cmd/shufflebench -suite plan) is the regression gate that keeps the
// ratios honest: it fails when the ranking picks a plan measurably far
// from the best fixed one.
const (
	// costDistBase and costDistDim price one distance computation on the
	// fused block kernels (vector.Block.NearestK and friends): a fixed
	// dispatch cost plus a per-dimension multiply-add, including the
	// amortized decode. Calibrated against the broadcast reducer's
	// measured throughput.
	costDistBase = 8.0
	costDistDim  = 1.5
	// costDistScalarBase/Dim price one distance computation on the
	// scalar paths — BruteForce's per-pair heap pushes and H-BRJ's
	// R-tree traversals — which measure ~2.5× the fused kernels.
	costDistScalarBase = 30.0
	costDistScalarDim  = 2.0
	// costShuffleByte prices one key+value byte through the sort-merge
	// shuffle (encode, sort, merge, group, decode).
	costShuffleByte = 20.0
	// costSpillByte prices one byte written to and re-read from run
	// files when the shuffle exceeds the memory budget.
	costSpillByte = 40.0
	// costJob is the fixed overhead of one MapReduce job on the
	// in-process engine: task spawning plus the per-record encode/decode
	// floor every job pays regardless of size. It is what makes an extra
	// merge job (PBJ, H-BRJ) expensive on small inputs and lets
	// BruteForce win tiny joins.
	costJob = 2e6
	// pbjThetaLooseness inflates the pruning radius when simulating PBJ:
	// its per-block θ (Algorithm 1 restricted to local S partitions) is
	// looser than PGBJ's global bound, which is why the paper finds PBJ
	// slower (§6.2).
	pbjThetaLooseness = 1.5
)

// distCost prices n distance computations at dimensionality dims on the
// fused block kernels.
func distCost(n int64, dims int) float64 {
	return float64(n) * (costDistBase + costDistDim*float64(dims))
}

// scalarDistCost prices n distance computations on the scalar paths.
func scalarDistCost(n int64, dims int) float64 {
	return float64(n) * (costDistScalarBase + costDistScalarDim*float64(dims))
}

// kernelFactor scales the fused-kernel distance price for the scan
// tier vector.AutoTier gives a reducer block of rows rows at
// dimensionality dims, so plans are priced as what will run. Calibrated
// against the BENCH_dist kernel suite: the quantized uint8 first pass
// cuts filter bandwidth 8× and costs ~0.5× the fused loop where the
// rule picks it.
func kernelFactor(dims, rows int) float64 {
	if vector.AutoTier(dims, rows) == vector.KernelQuantized {
		return 0.5
	}
	return 1.0
}

// Prediction is the cost model's estimate of what one plan would do —
// the quantities the paper's evaluation measures (§6), predicted before
// running. Stats from an actual run expose the matching actuals, making
// every prediction falsifiable.
type Prediction struct {
	// Jobs is the number of MapReduce jobs the plan launches.
	Jobs int
	// ShuffleRecords and ShuffleBytes estimate the total shuffle volume
	// across all jobs.
	ShuffleRecords int64
	ShuffleBytes   int64
	// ReplicasS estimates the S-object copies shipped to reducers
	// (Theorem 7's RP(S) for the pivot plans).
	ReplicasS int64
	// DistComps estimates total distance computations (Equation 13's
	// numerator), map and reduce side.
	DistComps int64
	// MaxReducerComps estimates the slowest reducer's distance
	// computations — the join job's critical path.
	MaxReducerComps int64
	// SpillBytes estimates the bytes that must round-trip through run
	// files under the memory budget (0 when the shuffle fits).
	SpillBytes int64
}

// Plan is one ranked candidate configuration: a concrete algorithm plus
// its tuning knobs, the model's cost prediction, and the scalar score
// the ranking sorts by (lower is better).
type Plan struct {
	// Algo is the canonical algorithm name, parseable by
	// knnjoin.ParseAlgorithm ("pgbj", "pbj", "hbrj", "broadcast",
	// "bruteforce", "zknn", "theta", "lsh").
	Algo string
	// NumPivots, PivotStrategy and GroupStrategy are the pivot-plan
	// knobs; zero-valued for algorithms without pivots.
	NumPivots     int
	PivotStrategy pivot.Strategy
	GroupStrategy pgbj.GroupStrategy
	// Approximate marks plans whose result is not exact (ZKNN, LSH);
	// Best skips them unless asked not to.
	Approximate bool
	// Predicted is the cost model's estimate; Score its scalar collapse.
	Predicted Prediction
	Score     float64
	// Why is a one-line human-readable justification.
	Why string
}

// Config renders the plan's configuration compactly ("pgbj p=64
// farthest/greedy", "broadcast").
func (p Plan) Config() string {
	if p.NumPivots == 0 {
		return p.Algo
	}
	if p.Algo == "pbj" {
		return fmt.Sprintf("%s p=%d %s", p.Algo, p.NumPivots, p.PivotStrategy)
	}
	return fmt.Sprintf("%s p=%d %s/%s", p.Algo, p.NumPivots, p.PivotStrategy, p.GroupStrategy)
}

// PlanInfo converts the plan into the stats-package form a Report
// carries, stamping the candidate count.
func (p Plan) PlanInfo(candidates int) *stats.PlanInfo {
	info := &stats.PlanInfo{
		Algorithm:             p.Algo,
		NumPivots:             p.NumPivots,
		Score:                 p.Score,
		Candidates:            candidates,
		PredictedShuffleBytes: p.Predicted.ShuffleBytes,
		PredictedDistComps:    p.Predicted.DistComps,
		PredictedReplicasS:    p.Predicted.ReplicasS,
		Why:                   p.Why,
	}
	if p.NumPivots > 0 {
		info.PivotStrategy = p.PivotStrategy.String()
		if p.Algo != "pbj" {
			info.GroupStrategy = p.GroupStrategy.String()
		}
	}
	return info
}

// pivotState caches everything shared by the PGBJ and PBJ candidates of
// one (NumPivots, PivotStrategy) pair: pivots selected from the R
// sample, the sampled Voronoi partitioning of both sides, the summary
// tables built at the sample-scaled k, the Algorithm-1 bounds θ, and the
// S cells as blocks sorted by pivot distance — the ascending lists
// Theorem-7 evaluation needs and the rows the Algorithm-3 replay scans.
type pivotState struct {
	numPivots int
	strategy  pivot.Strategy
	pp        *voronoi.Partitioner
	sum       *voronoi.Summary
	thetas    []float64
	rParts    [][]codec.Tagged
	sBlocks   []*vector.Block
	kSample   int

	// simExact and simLoose memoize the Algorithm-3 replay (per-partition
	// full-data reduce comps): the exact-θ run is shared by every
	// grouping strategy of this state, the loosened-θ run by PBJ.
	simExact []float64
	simLoose []float64
}

// sampleK scales k to the S sampling fraction: the k-th nearest of the
// full S is approximately the round(k·SFrac)-th nearest of a uniform
// SFrac-sample, so summary tables and pruning heaps built on the sample
// use this rank. The floor of 1 makes sparse samples conservative (the
// bound loosens, predictions overestimate — consistently across plans).
func sampleK(k int, sFrac float64) int {
	ks := int(math.Round(float64(k) * sFrac))
	if ks < 1 {
		ks = 1
	}
	if ks > k {
		ks = k
	}
	return ks
}

// buildPivotState selects numPivots pivots from the R sample with the
// strategy and rebuilds the PGBJ preprocessing state (partitioning,
// summary, θ) on the samples.
func buildPivotState(ds *DataStats, opts Options, numPivots int, strat pivot.Strategy) (*pivotState, error) {
	pivots, err := pivot.Select(strat, ds.RSample, numPivots, pivot.Options{Metric: opts.Metric, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	pp := voronoi.NewPartitioner(pivots, opts.Metric)
	kS := sampleK(opts.K, ds.SFrac)
	b := voronoi.NewSummaryBuilder(pp.NumPartitions(), kS)
	rParts := pp.Partition(ds.RSample, codec.FromR, nil)
	sParts := pp.Partition(ds.SSample, codec.FromS, nil)
	for _, g := range rParts {
		for _, t := range g {
			b.Add(t)
		}
	}
	sBlocks := make([]*vector.Block, len(sParts))
	for i, g := range sParts {
		voronoi.SortByPivotDist(g)
		sBlocks[i] = &vector.Block{}
		for _, t := range g {
			b.Add(t)
			if err := sBlocks[i].Append(t.ID, t.PivotDist, t.Point); err != nil {
				return nil, err
			}
		}
	}
	sum := b.Finalize()
	return &pivotState{
		numPivots: numPivots,
		strategy:  strat,
		pp:        pp,
		sum:       sum,
		thetas:    grouping.Thetas(sum, pp),
		rParts:    rParts,
		sBlocks:   sBlocks,
		kSample:   kS,
	}, nil
}

// pivotSelectComps models the full-run distance cost of pivot selection
// (§4.1): random sampling is free, farthest-first probes every R object
// per pivot, k-means adds its iteration count on top.
func pivotSelectComps(strat pivot.Strategy, numPivots, rSize int) int64 {
	switch strat {
	case pivot.Farthest:
		return int64(numPivots) * int64(rSize)
	case pivot.KMeans:
		return 10 * int64(numPivots) * int64(rSize)
	}
	return 0
}

// simulate replays Algorithm 3 on the samples: every strided probe R
// object runs the reducers' walk (voronoi.Walk) over the sampled S
// cells against the sampled summary — nearest pivot first, Corollary-1
// pruning, Theorem-2 windows, the surviving candidates scanned on the
// block kernels to tighten θ exactly as the reducer would — and the
// counted work scales back to full-data volume. Like the reducer, a
// probe computes |r,p_j| only where the pivot gap does not already
// decide the cell, and stops at the first cell past its GapLimit; the
// skipped non-empty cells are still counted, so the prediction is the
// charged cost. thetaScale loosens the bound (PBJ's per-block θ). The
// result is per-R-partition predicted reduce-side distance
// computations; callers aggregate it per reducer group. Both runs are
// memoized on the state — the replay does not depend on the grouping.
func (st *pivotState) simulate(ds *DataStats, opts Options, thetaScale float64) []float64 {
	switch {
	case thetaScale == 1 && st.simExact != nil:
		return st.simExact
	case thetaScale != 1 && st.simLoose != nil:
		return st.simLoose
	}
	perPart := make([]float64, st.pp.NumPartitions())
	stride := len(ds.RSample) / opts.MaxProbes
	if stride < 1 {
		stride = 1
	}
	heap := nnheap.NewKHeap(st.kSample)
	walk := voronoi.NewWalk(st.pp, st.sum)
	order := make([]int, st.pp.NumPartitions())
	gaps := make([]float64, len(order))
	left := make([]int, len(order)+1) // left[x]: non-empty cells at order[x:]
	probes := 0
	idx := 0
	for pi, part := range st.rParts {
		if len(part) == 0 {
			continue
		}
		// Line 14's visit order is a property of the partition, computed
		// once for all its probes.
		for j := range gaps {
			gaps[j] = st.pp.PivotDist(pi, j)
		}
		voronoi.VisitOrder(order, gaps)
		for x := len(order) - 1; x >= 0; x-- {
			left[x] = left[x+1]
			if !walk.Empty(order[x]) {
				left[x]++
			}
		}
		for _, r := range part {
			if idx%stride != 0 {
				idx++
				continue
			}
			idx++
			probes++
			heap.Reset()
			w := walk.Start(pi, r.PivotDist, st.thetas[pi]*thetaScale)
			var pivotComps, candComps float64
			for x, j := range order {
				if voronoi.PastGapLimit(gaps[j], w.GapLimit()) {
					pivotComps += float64(left[x])
					break
				}
				if w.Empty(j) {
					continue
				}
				pivotComps++
				if w.GapPrunes(j) {
					continue
				}
				rToPj := opts.Metric.Dist(r.Point, st.pp.Pivots[j])
				lo, hi, d := w.Decide(j, rToPj)
				if d != voronoi.Scan {
					continue
				}
				blk := st.sBlocks[j]
				from, to := blk.PivotDistWindow(0, blk.Len(), lo, hi)
				candComps += float64(blk.NearestKRange(r.Point, from, to, opts.Metric, heap))
				w.Tighten(heap)
			}
			perPart[pi] += pivotComps + candComps/ds.SFrac
		}
	}
	if probes > 0 {
		// Each probe stands for RSize/probes full R objects.
		weight := float64(ds.RSize) / float64(probes)
		for i := range perPart {
			perPart[i] *= weight
		}
	}
	if thetaScale == 1 {
		st.simExact = perPart
	} else {
		st.simLoose = perPart
	}
	return perPart
}

// spillBytes predicts the run-file round-trip volume: the external
// shuffle spills once the resident half-budget is exceeded.
func spillBytes(shuffleBytes, memLimit int64) int64 {
	if memLimit <= 0 || shuffleBytes <= memLimit/2 {
		return 0
	}
	return shuffleBytes
}

// score collapses a prediction into the scalar the ranking sorts by:
// per-job overhead, plus the larger of the perfectly parallel share and
// the critical path (slowest reducer compute plus its shuffle slice),
// plus the spill round-trip. scalar selects the scalar-path distance
// pricing (BruteForce, H-BRJ trees) over the fused-kernel pricing.
func score(p Prediction, ds *DataStats, opts Options, reducers int, scalar bool) float64 {
	if reducers < 1 {
		reducers = 1
	}
	// One reducer's block: its share of R plus the S replicas it gets.
	factor := kernelFactor(ds.Dims, int((int64(ds.RSize)+p.ReplicasS)/int64(reducers)))
	price := func(n int64, dims int) float64 {
		return distCost(n, dims) * factor
	}
	if scalar {
		price = scalarDistCost
	}
	parallel := (price(p.DistComps, ds.Dims) + costShuffleByte*float64(p.ShuffleBytes)) / float64(opts.Nodes)
	critical := price(p.MaxReducerComps, ds.Dims) + costShuffleByte*float64(p.ShuffleBytes)/float64(reducers)
	return costJob*float64(p.Jobs) + math.Max(parallel, critical) + costSpillByte*float64(p.SpillBytes)/float64(opts.Nodes)
}

// joinRecordBytes prices one job-2 record of PGBJ or PBJ: its JoinKey,
// which holds the tags, and a value of the object's coordinates.
func (ds *DataStats) joinRecordBytes() int64 {
	return int64(ds.JoinKeyBytes + 8*ds.Dims)
}

// costPGBJ evaluates one PGBJ candidate: Theorem-7 replication from the
// sampled routing state, the Algorithm-3 replay for reducer compute, and
// shuffle volume from the record and key sizes.
func costPGBJ(ds *DataStats, opts Options, st *pivotState, gs pgbj.GroupStrategy) (Plan, error) {
	numGroups := opts.Nodes
	if numGroups > st.numPivots {
		numGroups = st.numPivots
	}
	var groups *grouping.Result
	var err error
	switch gs {
	case pgbj.Greedy:
		groups, err = grouping.Greedy(st.pp, st.sum, numGroups, st.thetas)
	default:
		groups, err = grouping.Geometric(st.pp, st.sum, numGroups)
	}
	if err != nil {
		return Plan{}, err
	}
	glbs := grouping.GroupLBs(st.pp, st.sum, st.thetas, groups)
	sDists := make([][]float64, len(st.sBlocks))
	for i, blk := range st.sBlocks {
		sDists[i] = blk.PivotDist
	}
	replicas := int64(float64(grouping.ExactReplication(glbs, sDists)) / ds.SFrac)
	perPart := st.simulate(ds, opts, 1)
	perGroup := make([]float64, numGroups)
	for pi, w := range perPart {
		perGroup[groups.GroupOf[pi]] += w
	}
	var totalF, maxF float64
	for _, w := range perGroup {
		totalF += w
		if w > maxF {
			maxF = w
		}
	}
	total, maxGroup := int64(totalF), int64(maxF)

	shuffleRecords := int64(ds.RSize) + replicas
	p := Prediction{
		Jobs:            2, // partition + join (pivot selection is driver-side)
		ShuffleRecords:  shuffleRecords,
		ShuffleBytes:    shuffleRecords * ds.joinRecordBytes(),
		ReplicasS:       replicas,
		MaxReducerComps: maxGroup,
	}
	p.DistComps = int64(ds.RSize+ds.SSize)*int64(st.numPivots) +
		pivotSelectComps(st.strategy, st.numPivots, ds.RSize) + total
	p.SpillBytes = spillBytes(p.ShuffleBytes, opts.MemLimit)
	plan := Plan{
		Algo:          "pgbj",
		NumPivots:     st.numPivots,
		PivotStrategy: st.strategy,
		GroupStrategy: gs,
		Predicted:     p,
	}
	plan.Score = score(p, ds, opts, numGroups, false)
	plan.Why = fmt.Sprintf("Theorem-7 replication %.2f×, window-pruned reduce ≤%s comps/reducer",
		float64(replicas)/float64(ds.SSize), compact(maxGroup))
	return plan, nil
}

// costPBJ evaluates the PBJ candidate sharing st's pivots: the same
// pruning replayed with the looser per-block θ, the √N×√N block
// replication of both sides, and the extra merge job.
func costPBJ(ds *DataStats, opts Options, st *pivotState) Plan {
	b := hbrj.Blocks(opts.Nodes)
	var totalF float64
	for _, w := range st.simulate(ds, opts, pbjThetaLooseness) {
		totalF += w
	}
	total := int64(totalF)
	// Hash-scattered blocks balance well: the slowest of the b² reducers
	// carries ~1/b² of the work.
	maxReducer := total / int64(b*b)
	joinRecords := int64(b) * int64(ds.RSize+ds.SSize)
	mergeRecords := int64(b) * int64(ds.RSize)
	p := Prediction{
		Jobs:            3, // partition + block join + merge
		ShuffleRecords:  joinRecords + mergeRecords,
		ReplicasS:       int64(b) * int64(ds.SSize),
		DistComps:       int64(ds.RSize+ds.SSize)*int64(st.numPivots) + pivotSelectComps(st.strategy, st.numPivots, ds.RSize) + total,
		MaxReducerComps: maxReducer,
	}
	p.ShuffleBytes = joinRecords*ds.joinRecordBytes() +
		mergeRecords*int64(resultBytes(opts.K)+8)
	p.SpillBytes = spillBytes(p.ShuffleBytes, opts.MemLimit)
	plan := Plan{
		Algo:          "pbj",
		NumPivots:     st.numPivots,
		PivotStrategy: st.strategy,
		Predicted:     p,
	}
	plan.Score = score(p, ds, opts, b*b, false)
	plan.Why = fmt.Sprintf("pivot pruning with per-block θ, √N-block replication %d×(|R|+|S|), extra merge job", b)
	return plan
}

// costBroadcast evaluates the §3 basic strategy: S to every reducer,
// full scans, one job.
func costBroadcast(ds *DataStats, opts Options) Plan {
	replicas := int64(opts.Nodes) * int64(ds.SSize)
	records := int64(ds.RSize) + replicas
	comps := int64(ds.RSize) * int64(ds.SSize)
	p := Prediction{
		Jobs:            1,
		ShuffleRecords:  records,
		ShuffleBytes:    records * int64(ds.RecBytes+ds.RegionKeyBytes),
		ReplicasS:       replicas,
		DistComps:       comps,
		MaxReducerComps: comps / int64(opts.Nodes),
	}
	p.SpillBytes = spillBytes(p.ShuffleBytes, opts.MemLimit)
	plan := Plan{Algo: "broadcast", Predicted: p}
	plan.Score = score(p, ds, opts, opts.Nodes, false)
	plan.Why = fmt.Sprintf("ships S to every reducer (%d×|S| shuffle), unpruned scans", opts.Nodes)
	return plan
}

// costBruteForce evaluates the centralized exact join: no cluster, no
// shuffle — the plan of choice for tiny inputs where any MapReduce
// overhead dominates.
func costBruteForce(ds *DataStats, opts Options) Plan {
	comps := int64(ds.RSize) * int64(ds.SSize)
	p := Prediction{DistComps: comps, MaxReducerComps: comps / int64(opts.Nodes)}
	plan := Plan{Algo: "bruteforce", Predicted: p}
	plan.Score = scalarDistCost(comps, ds.Dims) / float64(opts.Nodes)
	plan.Why = "centralized nested loop: zero job and shuffle overhead, O(|R|·|S|) compute"
	return plan
}

// costHBRJ evaluates the R-tree block join: √N×√N replication and
// index-assisted probes whose selectivity decays with intrinsic
// dimensionality (the curse of dimensionality — an R-tree over
// high-intrinsic-dim data degenerates toward the full scan).
func costHBRJ(ds *DataStats, opts Options) Plan {
	b := hbrj.Blocks(opts.Nodes)
	rb := float64(ds.RSize) / float64(b)
	sb := float64(ds.SSize) / float64(b)
	frac := 1.0
	if sb > float64(opts.K) {
		frac = math.Min(1, math.Pow(float64(opts.K)/sb, 1/(1+ds.IntrinsicDim)))
	}
	perReducer := rb * sb * frac
	total := perReducer * float64(b*b)
	joinRecords := int64(b) * int64(ds.RSize+ds.SSize)
	mergeRecords := int64(b) * int64(ds.RSize)
	p := Prediction{
		Jobs:            2,
		ShuffleRecords:  joinRecords + mergeRecords,
		ReplicasS:       int64(b) * int64(ds.SSize),
		DistComps:       int64(total),
		MaxReducerComps: int64(perReducer),
	}
	p.ShuffleBytes = joinRecords*int64(ds.RecBytes+ds.RegionKeyBytes) +
		mergeRecords*int64(resultBytes(opts.K)+8)
	p.SpillBytes = spillBytes(p.ShuffleBytes, opts.MemLimit)
	plan := Plan{Algo: "hbrj", Predicted: p}
	plan.Score = score(p, ds, opts, b*b, true)
	plan.Why = fmt.Sprintf("R-tree probes examine ~%.0f%% of each S block at intrinsic dim %.1f", frac*100, ds.IntrinsicDim)
	return plan
}

// costTheta evaluates 1-Bucket-Theta: skew-proof random tiling, full
// cross-product compute.
func costTheta(ds *DataStats, opts Options) Plan {
	rows, cols := theta.Tiling(ds.RSize, ds.SSize, opts.Nodes)
	joinRecords := int64(ds.RSize)*int64(cols) + int64(ds.SSize)*int64(rows)
	mergeRecords := int64(ds.RSize) * int64(cols)
	comps := int64(ds.RSize) * int64(ds.SSize)
	p := Prediction{
		Jobs:            2,
		ShuffleRecords:  joinRecords + mergeRecords,
		ReplicasS:       int64(rows) * int64(ds.SSize),
		DistComps:       comps,
		MaxReducerComps: comps / int64(rows*cols),
	}
	p.ShuffleBytes = joinRecords*int64(ds.RecBytes+ds.RegionKeyBytes) +
		mergeRecords*int64(resultBytes(opts.K)+8)
	p.SpillBytes = spillBytes(p.ShuffleBytes, opts.MemLimit)
	plan := Plan{Algo: "theta", Predicted: p}
	plan.Score = score(p, ds, opts, rows*cols, false)
	plan.Why = fmt.Sprintf("%d×%d random tiling: perfectly balanced but full cross-product compute", rows, cols)
	return plan
}

// costZKNN evaluates the approximate z-order join at its default shift
// count.
func costZKNN(ds *DataStats, opts Options) Plan {
	const shifts = 3
	joinRecords := int64(shifts) * int64(ds.RSize+ds.SSize)
	mergeRecords := int64(shifts) * int64(ds.RSize)
	comps := int64(shifts) * int64(ds.RSize) * int64(4*opts.K)
	p := Prediction{
		Jobs:            2,
		ShuffleRecords:  joinRecords + mergeRecords,
		ReplicasS:       int64(shifts) * int64(ds.SSize),
		DistComps:       comps,
		MaxReducerComps: comps / int64(opts.Nodes),
	}
	p.ShuffleBytes = joinRecords*int64(ds.RecBytes+16) +
		mergeRecords*int64(resultBytes(opts.K)+8)
	p.SpillBytes = spillBytes(p.ShuffleBytes, opts.MemLimit)
	plan := Plan{Algo: "zknn", Approximate: true, Predicted: p}
	plan.Score = score(p, ds, opts, opts.Nodes, false)
	plan.Why = fmt.Sprintf("APPROXIMATE: %d shifted z-curves, ~%d candidates per object", shifts, 4*opts.K)
	return plan
}

// costLSH evaluates the approximate hashing join at its default table
// count.
func costLSH(ds *DataStats, opts Options) Plan {
	const tables = 4
	joinRecords := int64(tables) * int64(ds.RSize+ds.SSize)
	mergeRecords := int64(tables) * int64(ds.RSize)
	comps := int64(tables) * int64(ds.RSize) * int64(4*opts.K)
	p := Prediction{
		Jobs:            2,
		ShuffleRecords:  joinRecords + mergeRecords,
		ReplicasS:       int64(tables) * int64(ds.SSize),
		DistComps:       comps,
		MaxReducerComps: comps / int64(opts.Nodes),
	}
	p.ShuffleBytes = joinRecords*int64(ds.RecBytes+16) +
		mergeRecords*int64(resultBytes(opts.K)+8)
	p.SpillBytes = spillBytes(p.ShuffleBytes, opts.MemLimit)
	plan := Plan{Algo: "lsh", Approximate: true, Predicted: p}
	plan.Score = score(p, ds, opts, opts.Nodes, false)
	plan.Why = fmt.Sprintf("APPROXIMATE: %d hash tables, bucket-local verification", tables)
	return plan
}

// resultBytes is the encoded size of one k-neighbor Result record — the
// payload of the merge jobs' shuffles.
func resultBytes(k int) int {
	nbs := make([]codec.Neighbor, k)
	return len(codec.EncodeResult(codec.Result{Neighbors: nbs}))
}

// compact renders a count with a metric suffix for Why strings.
func compact(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	}
	return fmt.Sprint(n)
}
