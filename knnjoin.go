package knnjoin

import (
	"fmt"
	"math"
	"strings"

	"knnjoin/internal/codec"
	"knnjoin/internal/driver"
	"knnjoin/internal/hbrj"
	"knnjoin/internal/naive"
	"knnjoin/internal/pgbj"
	"knnjoin/internal/pivot"
	"knnjoin/internal/rangejoin"
	"knnjoin/internal/stats"
	"knnjoin/internal/topk"
	"knnjoin/internal/vector"
	"knnjoin/internal/zknn"
)

// Point is an n-dimensional coordinate vector.
type Point = vector.Point

// Metric identifies the distance measure.
type Metric = vector.Metric

// Distance metrics. L2 (Euclidean) is the default, matching the paper.
const (
	L2   = vector.L2
	L1   = vector.L1
	LInf = vector.LInf
)

// Object is a point with a dataset-unique identifier.
type Object = codec.Object

// Neighbor is one (s, distance) entry of a join result.
type Neighbor = codec.Neighbor

// Result holds one R object's k nearest neighbors, ascending by distance.
type Result = codec.Result

// Stats reports what a join cost; see the stats package for field docs.
type Stats = stats.Report

// Algorithm selects the join implementation.
type Algorithm int

const (
	// PGBJ is the paper's contribution: Voronoi partitioning with pivot
	// grouping, one MapReduce join job, minimal S-replication. Default.
	PGBJ Algorithm = iota
	// PBJ is PGBJ's pruning inside the √N×√N block framework (no
	// grouping, extra merge job).
	PBJ
	// HBRJ is the R-tree block-join baseline of Zhang et al. (EDBT'12).
	HBRJ
	// Broadcast is the §3 basic strategy: S replicated to every reducer.
	Broadcast
	// BruteForce is the centralized exact join; no cluster involved.
	BruteForce
	// ZKNN is H-zkNNJ (Zhang et al., EDBT'12): the z-order APPROXIMATE
	// join the paper excludes from its exact comparison (§7). Results
	// are close to exact (recall rises with data regularity and the
	// shift count) but not guaranteed; every reported distance is a true
	// distance to a real S object.
	ZKNN
	// Auto resolves to a configuration by a fixed rule (ExplainAuto
	// tells which, and why) and records the choice in Stats.Plan.
	Auto
)

// String returns the algorithm's conventional name.
func (a Algorithm) String() string {
	switch a {
	case PGBJ:
		return "pgbj"
	case PBJ:
		return "pbj"
	case HBRJ:
		return "hbrj"
	case Broadcast:
		return "broadcast"
	case BruteForce:
		return "bruteforce"
	case ZKNN:
		return "zknn"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm converts a name ("pgbj", "h-brj", ...) into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(strings.ReplaceAll(strings.TrimSpace(s), "-", "")) {
	case "pgbj", "":
		return PGBJ, nil
	case "pbj":
		return PBJ, nil
	case "hbrj":
		return HBRJ, nil
	case "broadcast", "basic":
		return Broadcast, nil
	case "bruteforce", "brute", "exact":
		return BruteForce, nil
	case "zknn", "hzknnj", "approx":
		return ZKNN, nil
	case "auto", "plan":
		return Auto, nil
	}
	return PGBJ, fmt.Errorf("knnjoin: unknown algorithm %q", s)
}

// ParseMetric converts a metric name ("l2", "l1", "linf", "max", ...)
// into a Metric.
func ParseMetric(s string) (Metric, error) { return vector.ParseMetric(s) }

// PivotStrategy selects how PGBJ/PBJ choose pivots (§4.1).
type PivotStrategy = pivot.Strategy

// ParsePivotStrategy converts a strategy name ("random", "farthest",
// "kmeans") into a PivotStrategy.
func ParsePivotStrategy(s string) (PivotStrategy, error) { return pivot.ParseStrategy(s) }

// ParseGroupStrategy converts a grouping name ("geometric", "greedy")
// into a GroupStrategy.
func ParseGroupStrategy(s string) (GroupStrategy, error) { return pgbj.ParseGroupStrategy(s) }

// Pivot-selection strategies.
const (
	RandomPivots   = pivot.Random
	FarthestPivots = pivot.Farthest
	KMeansPivots   = pivot.KMeans
)

// GroupStrategy selects how PGBJ clusters partitions into reducer groups
// (§5.2).
type GroupStrategy = pgbj.GroupStrategy

// Grouping strategies.
const (
	GeometricGrouping = pgbj.Geometric
	GreedyGrouping    = pgbj.Greedy
)

// Options configures a join. The zero value of every field except K is
// usable: PGBJ on 4 simulated nodes with L2, random pivots and geometric
// grouping — the configuration the paper recommends after §6.1.
type Options struct {
	// K is the number of neighbors per R object. Required, positive.
	K int
	// Algorithm selects the implementation; default PGBJ.
	Algorithm Algorithm
	// Metric is the distance measure; default L2.
	Metric Metric
	// Nodes is the simulated cluster size (reducers); default 4.
	Nodes int
	// NumPivots is |P| for PGBJ/PBJ; default ≈ 2·√|R|, clamped to
	// [Nodes, |R|].
	NumPivots int
	// PivotStrategy is the §4.1 selection strategy; default random.
	PivotStrategy PivotStrategy
	// GroupStrategy is the §5.2 grouping strategy; default geometric.
	GroupStrategy GroupStrategy
	// Seed fixes all randomized choices; runs are deterministic per seed.
	Seed int64
	// ChunkRecords is the DFS split size (records per map task); default
	// dfs.DefaultChunkRecords.
	ChunkRecords int
	// SpillDir selects the out-of-core execution backend: dataset chunks
	// and shuffle runs live under this directory instead of in memory,
	// and reducers stream sorted runs back off disk. Empty keeps the
	// in-memory backend. Join results are byte-identical either way.
	SpillDir string
	// MemLimit bounds the shuffle bytes held resident (half for retained
	// runs, half for merge buffers). MemLimit > 0 with an empty SpillDir
	// spills to a temporary directory removed when the join returns.
	MemLimit int64
	// Workers, when positive, executes the MapReduce jobs on that many
	// separate worker processes coordinated over RPC instead of on
	// goroutines of this process. Results are byte-identical either
	// way. The datasets then live on disk (under SpillDir, or a
	// temporary directory removed when the join returns), and each
	// worker process reads its input splits from those files. Worker
	// processes always exchange shuffle runs as files; a MemLimit still
	// bounds their reduce-side merge buffers. The program's main (or
	// TestMain) must call RunWorkerIfSpawned first so re-executions of
	// the binary can serve as workers.
	Workers int
	// Faults is an optional deterministic fault-injection plan applied
	// to the workers, goroutines or processes — testing hook; nil
	// injects nothing.
	Faults *FaultPlan
	// TraceDir, when set, makes the job scheduler and every worker
	// write observability spans as JSONL files under this directory
	// (merge and render them with cmd/knntrace). Empty disables
	// tracing; join results are byte-identical either way.
	TraceDir string
	// Pprof, with Workers > 0, exposes net/http/pprof on the
	// coordinator's HTTP server for live profiling of long joins.
	Pprof bool
}

func (o Options) withDefaults(rSize int) (Options, error) {
	if o.K <= 0 {
		return o, fmt.Errorf("knnjoin: Options.K must be positive, got %d", o.K)
	}
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	o.NumPivots = numPivots(o.NumPivots, o.Nodes, rSize)
	return o, nil
}

// numPivots resolves a NumPivots option for |R| = rSize on nodes nodes:
// ≈ 2·√|R| when unset, clamped to [nodes, |R|].
func numPivots(n, nodes, rSize int) int {
	if n <= 0 {
		n = int(2 * math.Sqrt(float64(rSize)))
	}
	return min(max(n, nodes), rSize)
}

// loadEnv builds a join's environment and loads R and S into it. The
// caller closes the environment.
func loadEnv(cfg driver.Config, r, s []Object) (*driver.Env, error) {
	env, err := driver.NewEnv(cfg)
	if err != nil {
		return nil, fmt.Errorf("knnjoin: %w", err)
	}
	if err := env.LoadRS(r, s); err != nil {
		env.Close()
		return nil, fmt.Errorf("knnjoin: %w", err)
	}
	return env, nil
}

// bruteForcePairs is the largest |R|·|S| at which Algorithm Auto runs
// the centralized join: up to it, computing every distance costs less
// than one MapReduce job ("Auto: the evidence table" in ARCHITECTURE.md).
const bruteForcePairs = 1 << 18

// resolveAuto is Algorithm Auto's rule, read off the evidence table in
// ARCHITECTURE.md: BruteForce up to bruteForcePairs (empty inputs
// included), else PGBJ with the caller's NumPivots, PivotStrategy and
// GroupStrategy. A sampled cost model used to choose; it picked no plan
// that beat that default by more than the benchmark's bound, and its
// planning cost more than the join. opts has its defaults resolved.
func resolveAuto(rSize, sSize int, opts Options) (Options, *stats.PlanInfo) {
	info := &stats.PlanInfo{}
	if pairs := rSize * sSize; pairs <= bruteForcePairs {
		opts.Algorithm = BruteForce
		info.Why = fmt.Sprintf("|R|·|S| = %d ≤ %d: every distance costs less than one MapReduce job", pairs, bruteForcePairs)
	} else {
		opts.Algorithm, info.Why = PGBJ, "the default above the brute-force cut (ARCHITECTURE.md, \"Auto: the evidence table\")"
		info.NumPivots = opts.NumPivots
		info.PivotStrategy, info.GroupStrategy = opts.PivotStrategy.String(), opts.GroupStrategy.String()
	}
	info.Algorithm = opts.Algorithm.String()
	return opts, info
}

// ExplainAuto returns the configuration Join runs for r and s under
// Algorithm Auto, and why, without joining.
func ExplainAuto(r, s []Object, opts Options) (*stats.PlanInfo, error) {
	opts, err := opts.withDefaults(len(r))
	if err != nil {
		return nil, err
	}
	_, info := resolveAuto(len(r), len(s), opts)
	return info, nil
}

// Join computes the kNN join of r and s — exact for every algorithm but
// ZKNN. Results are ordered by R object ID; each holds min(K, |S|)
// neighbors ascending by distance (ZKNN may return fewer when its
// candidate sets miss).
// The returned Stats expose the run's cost measures. With Algorithm
// Auto, Stats.Plan records the configuration the rule chose. Join
// collects what JoinTo streams.
func Join(r, s []Object, opts Options) ([]Result, *Stats, error) {
	var results []Result
	if len(r) > 0 {
		results = make([]Result, 0, len(r))
	}
	st, err := JoinTo(r, s, opts, func(res Result) error {
		results = append(results, res.Clone())
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return results, st, nil
}

// JoinTo is Join with the results streamed to each, in the order Join
// returns them, instead of gathered into one slice: a caller that writes
// the rows out never holds them all. The Result each receives, and its
// Neighbors, are reused for the next call; copy them (Result.Clone) to
// keep them. An error from each stops the join and is returned. The
// join's own output is read from its job's output file after the last
// job, so the Stats are complete before each is first called.
func JoinTo(r, s []Object, opts Options, each func(Result) error) (*Stats, error) {
	opts, err := opts.withDefaults(len(r))
	if err != nil {
		return nil, err
	}
	var planInfo *stats.PlanInfo
	if opts.Algorithm == Auto {
		opts, planInfo = resolveAuto(len(r), len(s), opts)
	}
	if len(r) == 0 {
		return &Stats{Algorithm: opts.Algorithm.String(), K: opts.K}, nil
	}

	if opts.Algorithm == BruteForce {
		if err := driver.CheckObjects(r, s); err != nil {
			return nil, fmt.Errorf("knnjoin: %w", err)
		}
		results, pairs := naive.BruteForce(r, s, opts.K, opts.Metric)
		rep := &Stats{Algorithm: "bruteforce", K: opts.K, RSize: len(r), SSize: len(s),
			Dims: r[0].Point.Dim(), Nodes: 1, Pairs: pairs, OutputPairs: countPairs(results)}
		rep.Plan = planInfo
		for _, res := range results {
			if err := each(res); err != nil {
				return nil, err
			}
		}
		return rep, nil
	}

	env, err := loadEnv(driver.Config{
		Nodes: opts.Nodes, ChunkRecords: opts.ChunkRecords,
		SpillDir: opts.SpillDir, MemLimit: opts.MemLimit,
		Workers: opts.Workers, Faults: opts.Faults, TraceDir: opts.TraceDir,
		Pprof: opts.Pprof,
	}, r, s)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	cluster, rf, sf, of := env.Cluster, driver.RFile, driver.SFile, driver.OutFile

	var rep *Stats
	switch opts.Algorithm {
	case PGBJ:
		rep, err = pgbj.Run(cluster, rf, sf, of, pgbj.Options{
			K: opts.K, Metric: opts.Metric, NumPivots: opts.NumPivots,
			PivotStrategy: opts.PivotStrategy, GroupStrategy: opts.GroupStrategy,
			Seed: opts.Seed,
		})
	case PBJ:
		rep, err = pgbj.RunPBJ(cluster, rf, sf, of, pgbj.Options{
			K: opts.K, Metric: opts.Metric, NumPivots: opts.NumPivots,
			PivotStrategy: opts.PivotStrategy, Seed: opts.Seed,
		})
	case HBRJ:
		rep, err = hbrj.Run(cluster, rf, sf, of, hbrj.Options{K: opts.K, Metric: opts.Metric})
	case Broadcast:
		rep, err = naive.Broadcast(cluster, rf, sf, of, naive.BroadcastOptions{
			K: opts.K, Metric: opts.Metric,
		})
	case ZKNN:
		if opts.Metric != L2 {
			return nil, fmt.Errorf("knnjoin: ZKNN supports only the L2 metric (z-order locality is Euclidean)")
		}
		rep, err = zknn.Run(cluster, rf, sf, of, zknn.Options{K: opts.K, Seed: opts.Seed})
	default:
		return nil, fmt.Errorf("knnjoin: unknown algorithm %v", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	rep.Dims = r[0].Point.Dim()
	rep.Plan = planInfo
	if err := driver.EachResult(env.FS, of, each); err != nil {
		return nil, err
	}
	return rep, nil
}

func countPairs(results []Result) int64 {
	var n int64
	for _, r := range results {
		n += int64(len(r.Neighbors))
	}
	return n
}

// SelfJoin computes the kNN self-join of objs (R = S), the workload used
// throughout the paper's evaluation. Note that with R = S each object's
// nearest neighbor is itself at distance zero; pass K+1 and drop the
// self-match if you need k proper neighbors (see ExcludeSelf).
func SelfJoin(objs []Object, opts Options) ([]Result, *Stats, error) {
	return Join(objs, objs, opts)
}

// RangeOptions configures RangeJoin.
type RangeOptions struct {
	// Radius is θ, the inclusive distance threshold. Required, ≥ 0 (not
	// NaN).
	Radius float64
	// Metric is the distance measure; default L2.
	Metric Metric
	// Nodes is the simulated cluster size; default 4.
	Nodes int
	// NumPivots is |P|; default ≈ 2·√|R|, clamped to [Nodes, |R|].
	NumPivots int
	// PivotStrategy is the §4.1 selection strategy; default random.
	PivotStrategy PivotStrategy
	// Seed fixes pivot selection; runs are deterministic per seed.
	Seed int64
	// SpillDir selects the out-of-core backend (see Options.SpillDir).
	SpillDir string
	// MemLimit bounds resident shuffle bytes (see Options.MemLimit).
	MemLimit int64
	// Workers runs the jobs on worker processes (see Options.Workers).
	Workers int
	// Faults is the worker fault-injection plan (see Options.Faults).
	Faults *FaultPlan
	// TraceDir enables span tracing (see Options.TraceDir).
	TraceDir string
}

// RangeJoin computes the θ-range join of r and s on the emulated
// cluster: every (r, s) pair with distance at most Radius, grouped per R
// object with neighbors ascending. It runs the paper's PGBJ pipeline
// with the fixed radius standing in for the derived kNN bound θ_i
// (Definition 3 made distributed). R objects with no in-range partner
// are omitted from the result. RangeJoin collects what RangeJoinTo
// streams.
func RangeJoin(r, s []Object, opts RangeOptions) ([]Result, *Stats, error) {
	var results []Result
	if len(r) > 0 && len(s) > 0 {
		results = make([]Result, 0, len(r))
	}
	st, err := RangeJoinTo(r, s, opts, func(res Result) error {
		results = append(results, res.Clone())
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return results, st, nil
}

// RangeJoinTo is RangeJoin with the results streamed to each, under
// JoinTo's contract: ascending R object ID, one reused Result per call,
// and an error from each stops the join.
func RangeJoinTo(r, s []Object, opts RangeOptions, each func(Result) error) (*Stats, error) {
	if !(opts.Radius >= 0) { // NaN fails every comparison
		return nil, fmt.Errorf("knnjoin: RangeOptions.Radius must be a non-negative number, got %g", opts.Radius)
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 4
	}
	opts.NumPivots = numPivots(opts.NumPivots, opts.Nodes, len(r))
	if len(r) == 0 || len(s) == 0 {
		return &Stats{Algorithm: "range-join"}, nil
	}
	env, err := loadEnv(driver.Config{
		Nodes: opts.Nodes, SpillDir: opts.SpillDir, MemLimit: opts.MemLimit,
		Workers: opts.Workers, Faults: opts.Faults, TraceDir: opts.TraceDir,
	}, r, s)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	rep, err := rangejoin.Run(env.Cluster, driver.RFile, driver.SFile, driver.OutFile, rangejoin.Options{
		Radius: opts.Radius, Metric: opts.Metric, NumPivots: opts.NumPivots,
		PivotStrategy: opts.PivotStrategy, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	rep.Dims = r[0].Point.Dim()
	if err := driver.EachResult(env.FS, driver.OutFile, each); err != nil {
		return nil, err
	}
	return rep, nil
}

// Pair is one result of a top-k closest-pairs join: an R object, an S
// object and their distance.
type Pair = topk.Pair

// PairOptions configures ClosestPairs.
type PairOptions struct {
	// K is the number of closest pairs to return. Required, positive.
	K int
	// Metric is the distance measure; default L2.
	Metric Metric
	// Nodes is the simulated cluster size; default 4.
	Nodes int
	// ExcludeSelf drops pairs whose two IDs are equal — the natural
	// setting for self-joins.
	ExcludeSelf bool
	// Unordered keeps only pairs with RID < SID, so a self-join reports
	// each unordered pair once.
	Unordered bool
	// Seed fixes the threshold sampling; runs are deterministic per seed.
	Seed int64
	// SpillDir selects the out-of-core backend (see Options.SpillDir).
	SpillDir string
	// MemLimit bounds resident shuffle bytes (see Options.MemLimit).
	MemLimit int64
	// Workers runs the jobs on worker processes (see Options.Workers).
	Workers int
	// Faults is the worker fault-injection plan (see Options.Faults).
	Faults *FaultPlan
	// TraceDir enables span tracing (see Options.TraceDir).
	TraceDir string
}

// ClosestPairs finds the k closest (r, s) pairs of R × S on the emulated
// cluster — the top-k similarity join of Kim & Shim (ICDE'12), which the
// paper's related work (§7, ref [11]) describes as the special case of
// the kNN join. The result is exact, ascending by distance; ties beyond
// position k are dropped. The returned Stats expose the run's cost
// measures.
func ClosestPairs(r, s []Object, opts PairOptions) ([]Pair, *Stats, error) {
	if opts.K <= 0 {
		return nil, nil, fmt.Errorf("knnjoin: PairOptions.K must be positive, got %d", opts.K)
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 4
	}
	if len(r) == 0 || len(s) == 0 {
		return nil, &Stats{Algorithm: "top-k pairs", K: opts.K}, nil
	}
	env, err := loadEnv(driver.Config{
		Nodes: opts.Nodes, SpillDir: opts.SpillDir, MemLimit: opts.MemLimit,
		Workers: opts.Workers, Faults: opts.Faults, TraceDir: opts.TraceDir,
	}, r, s)
	if err != nil {
		return nil, nil, err
	}
	defer env.Close()
	pairs, rep, err := topk.Run(env.Cluster, driver.RFile, driver.SFile, driver.OutFile, topk.Options{
		K: opts.K, Metric: opts.Metric, ExcludeSelf: opts.ExcludeSelf,
		Unordered: opts.Unordered, Seed: opts.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	rep.Dims = r[0].Point.Dim()
	return pairs, rep, nil
}

// ExcludeSelf removes each result's self-match (the neighbor whose ID
// equals the R object's ID) in place and returns results. At most one
// neighbor per result is removed; results without a self-match are
// unchanged. Useful after SelfJoin with K one larger than needed.
func ExcludeSelf(results []Result) []Result {
	for i := range results {
		nbs := results[i].Neighbors
		for j, nb := range nbs {
			if nb.ID == results[i].RID {
				results[i].Neighbors = append(nbs[:j:j], nbs[j+1:]...)
				break
			}
		}
	}
	return results
}
