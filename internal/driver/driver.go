// Package driver owns the scaffolding every public join operator used to
// repeat: build a DFS (in-memory, or disk-backed when a spill backend is
// configured), simulate a cluster over it, load the R and S datasets as
// Tagged records, run an algorithm, and decode the result file. Join,
// RangeJoin, ClosestPairs and LOF (via the self-join) all run through
// one Env instead of four copies of that setup. Every job of every
// join runs through RunJob, which folds the job's counters into the
// run's Stats in one place. The package also
// hosts the reduce-side collection helpers shared by the block/region
// reducers — including the columnar-Block collectors every driver's hot
// loop now runs on — and the emit-time conversion from candidate heaps
// to result neighbors.
package driver

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
)

// Canonical file names every operator uses on its private filesystem.
const (
	RFile   = "R"
	SFile   = "S"
	OutFile = "out"
)

// Env is one join run's environment: a fresh filesystem and a simulated
// cluster of the requested size.
type Env struct {
	FS      dfs.Store
	Cluster *mapreduce.Cluster

	ownedDir string // directory this Env created and must remove
}

// Config selects an environment's shape: cluster size, split size, and
// the execution backend (see mapreduce.Engine). The zero value of the
// backend fields keeps everything in memory — the default every caller
// had before spilling existed.
type Config struct {
	// Nodes is the simulated cluster size. Must be positive.
	Nodes int
	// ChunkRecords is the DFS split size (records per map task); ≤0
	// selects the DFS default.
	ChunkRecords int
	// SpillDir, when non-empty, selects the out-of-core backend rooted at
	// this directory: DFS chunks and shuffle runs both live under it.
	SpillDir string
	// MemLimit bounds resident shuffle bytes (half for retained runs,
	// half for merge buffers; see mapreduce.Engine). MemLimit > 0 with an
	// empty SpillDir makes the Env create — and remove on Close — a
	// temporary spill directory.
	MemLimit int64
	// Workers, when positive, runs every job on that many worker
	// processes coordinated over RPC (see mapreduce.Config.Workers)
	// instead of goroutine workers. Output is byte-identical either
	// way. The DFS then lives on disk, under SpillDir or a temporary
	// directory removed on Close, and each worker process reads its
	// input splits from those files. Worker processes always stage
	// intermediate runs on disk; under a MemLimit their reducers merge
	// within the same budget.
	Workers int
	// Faults is an optional deterministic fault-injection plan for the
	// workers; nil injects nothing.
	Faults *mapreduce.FaultPlan
	// TraceDir, when non-empty, enables span tracing: the scheduler and
	// every worker write JSONL span files there (see internal/obs and
	// cmd/knntrace). Tracing never changes any output byte.
	TraceDir string
	// Pprof exposes net/http/pprof on the coordinator's HTTP server.
	// Only meaningful with Workers > 0.
	Pprof bool
}

// NewEnv builds an environment for the configuration. With a spill
// backend configured, both the DFS chunks and the shuffle runs live on
// disk in a private subdirectory of SpillDir (or the system temp dir),
// created here and removed by Close — so any number of runs can share one
// spill root without colliding. With worker processes the DFS lives
// there too, whether or not runs spill. Call Close when the run's
// results have been read.
func NewEnv(cfg Config) (*Env, error) {
	env := &Env{FS: dfs.New(cfg.ChunkRecords)}
	spill := cfg.SpillDir != "" || cfg.MemLimit > 0
	var eng mapreduce.Engine
	if spill || cfg.Workers > 0 {
		root := cfg.SpillDir
		if root == "" {
			root = os.TempDir()
		} else if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, fmt.Errorf("driver: spill dir: %w", err)
		}
		dir, err := os.MkdirTemp(root, "knnjoin-env-*")
		if err != nil {
			return nil, fmt.Errorf("driver: spill dir: %w", err)
		}
		env.ownedDir = dir
		if env.FS, err = dfs.NewDisk(filepath.Join(dir, "dfs"), cfg.ChunkRecords); err != nil {
			env.Close()
			return nil, err
		}
		if spill {
			eng = mapreduce.Engine{SpillDir: filepath.Join(dir, "shuffle"), MemLimit: cfg.MemLimit}
			if err := os.MkdirAll(eng.SpillDir, 0o755); err != nil {
				env.Close()
				return nil, fmt.Errorf("driver: spill dir: %w", err)
			}
		}
	}
	cluster, err := mapreduce.NewCluster(env.FS, cfg.Nodes, mapreduce.Config{
		Engine:   eng,
		Workers:  cfg.Workers,
		Faults:   cfg.Faults,
		TraceDir: cfg.TraceDir,
		Pprof:    cfg.Pprof,
	})
	if err != nil {
		env.Close()
		return nil, err
	}
	env.Cluster = cluster
	return env, nil
}

// Close releases the environment: the private directory the Env created
// is removed with everything in it (a caller-provided spill root itself
// is left in place). Closing an in-memory Env only closes its cluster,
// so callers may defer it unconditionally.
func (e *Env) Close() {
	if e.Cluster != nil {
		e.Cluster.Close()
	}
	if e.ownedDir != "" {
		os.RemoveAll(e.ownedDir)
		e.ownedDir = ""
	}
}

// LoadRS validates the datasets and writes them to the canonical R and S
// files as source-tagged records. Validation happens here, at dataset
// load, because it is the last place a dimensionality mix-up or a
// non-finite coordinate is an input error: past this point mismatched
// points meet inside a reducer, where Metric.Dist treats the mix as a
// programming error and panics, and a NaN silently defeats every
// comparison and every triangle-inequality bound.
func (e *Env) LoadRS(r, s []codec.Object) error {
	if err := CheckObjects(r, s); err != nil {
		return err
	}
	if err := dataset.ToDFS(e.FS, RFile, r, codec.FromR); err != nil {
		return err
	}
	return dataset.ToDFS(e.FS, SFile, s, codec.FromS)
}

// CheckObjects verifies that every object of r and s shares one
// dimensionality (taken from the first object present) and has only
// finite coordinates (codec.CheckObjects), and reports the first
// offender, by set and object ID, otherwise.
func CheckObjects(r, s []codec.Object) error {
	dim, err := codec.CheckObjects(r, -1)
	if err != nil {
		return fmt.Errorf("driver: R %w", err)
	}
	if _, err := codec.CheckObjects(s, dim); err != nil {
		return fmt.Errorf("driver: S %w", err)
	}
	return nil
}

// Results decodes the canonical output file into join results sorted by
// R object ID — the output contract of every join algorithm.
func (e *Env) Results() ([]codec.Result, error) {
	return ReadResults(e.FS, OutFile)
}

// ReadResults decodes a result file produced by any join job and returns
// the results sorted by R object ID: EachResult, collected.
func ReadResults(fs dfs.Store, name string) ([]codec.Result, error) {
	out := make([]codec.Result, 0, fs.Size(name))
	if err := EachResult(fs, name, func(r codec.Result) error {
		out = append(out, r.Clone())
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// EachResult calls fn with every result of a result file produced by any
// join job, in ascending R object ID — the one output path of every join.
// Each record is checked before fn sees the first result, so a damaged
// file fails whole, naming its first bad record in write order. The
// records are ordered by SortResults' comparison of their R IDs, so
// results with equal R IDs come in the order SortResults gives them.
// fn's Result, neighbors included, is reused for the next one: copy it
// (Result.Clone) to keep it. An error from fn stops the walk and is
// returned.
func EachResult(fs dfs.Store, name string, fn func(codec.Result) error) error {
	recs, err := fs.Read(name)
	if err != nil {
		return err
	}
	for i, r := range recs {
		if _, err := codec.PeekResult(r); err != nil {
			return fmt.Errorf("driver: result record %d of %q: %w", i, name, err)
		}
	}
	rid := func(b dfs.Record) int64 {
		id, _ := codec.PeekResult(b) // checked above
		return id
	}
	sort.Slice(recs, func(i, j int) bool { return rid(recs[i]) < rid(recs[j]) })
	var res codec.Result
	for _, r := range recs {
		_ = codec.DecodeResultInto(&res, r) // checked above
		if err := fn(res); err != nil {
			return err
		}
	}
	return nil
}

// AssignEvaluatedCounter is the job counter in which a Voronoi
// partitioning job (job 1 of pgbj.Partition) reports the object–pivot
// distances its pruned nearest-pivot scans actually computed; the job's
// "pairs" counter keeps the |P| per object the paper's algorithm is
// charged.
const AssignEvaluatedCounter = "assign_evaluated"

// ReducerPivotChargedCounter and ReducerPivotEvaluatedCounter are the
// job counters in which a join job's reducers (pgbj.GroupBlock.Windows:
// PGBJ, PBJ and the range join) report the object–pivot distances
// |r,p_j| they are charged — one per (R row, S-partition) of a group, a
// share of the job's "pairs" — and the ones they computed, the rest
// being ruled out from the pivot gap alone (voronoi.Walk.GapPrunes).
const (
	ReducerPivotChargedCounter   = "reducer_pivot_charged"
	ReducerPivotEvaluatedCounter = "reducer_pivot_evaluated"
)

// RunJob runs one MapReduce job of a join and folds what it measured
// into the report: the one place a job's counters become Stats. It
// records phase with the wall around cluster.Run, appends the job's
// JobStat, and folds
//
//   - the "pairs" counter into Pairs,
//   - ShuffleBytes and ShuffleRecords into theirs,
//   - the "replicas_s" counter into ReplicasS,
//   - the simulated map plus reduce makespan into SimMakespan,
//   - the assignment and reducer-pivot counters into theirs, and
//   - the "result_pairs" counter into OutputPairs — assigned, not
//     added, so the last job, the one that writes the output, wins over
//     the partial counts of a job whose lists a merge job reduces.
//
// JoinSkew stays with the caller, which knows which job is its join.
func RunJob(cluster *mapreduce.Cluster, rep *stats.Report, phase string, job *mapreduce.Job) (*mapreduce.JobStats, error) {
	start := time.Now()
	js, err := cluster.Run(job)
	if err != nil {
		return nil, err
	}
	rep.AddPhase(phase, time.Since(start))
	pairs := js.Counters["pairs"]
	if ev := js.Counters[AssignEvaluatedCounter]; ev > 0 {
		// Only partitioning jobs set it, and all their comparisons are
		// assignment.
		rep.AssignEvaluated += ev
		rep.AssignCharged += pairs
	}
	rep.ReducerPivotCharged += js.Counters[ReducerPivotChargedCounter]
	rep.ReducerPivotEvaluated += js.Counters[ReducerPivotEvaluatedCounter]
	rep.Pairs += pairs
	rep.ShuffleBytes += js.ShuffleBytes
	rep.ShuffleRecords += js.ShuffleRecords
	rep.ReplicasS += js.Counters["replicas_s"]
	rep.SimMakespan += js.SimMapMakespan + js.SimReduceMakespan
	rep.OutputPairs = js.Counters["result_pairs"]
	loaded := 0
	for _, n := range js.ReduceInputRecords {
		if n > 0 {
			loaded++
		}
	}
	rep.AddJob(stats.JobStat{
		Name:               js.Job,
		ShuffleRecords:     js.ShuffleRecords,
		ShuffleBytes:       js.ShuffleBytes,
		DistComps:          pairs,
		SpilledBytes:       js.SpilledBytes,
		Wall:               js.Wall(),
		MapWall:            js.MapWall,
		ReduceWall:         js.ReduceWall,
		WorkerTasks:        js.WorkerTasks,
		ReexecutedAttempts: js.ReexecutedAttempts,
		ReduceGroups:       js.ReduceGroups,
		LoadedReducers:     loaded,
	})
	return js, nil
}

// CollectRSBlocks streams one reducer group of Tagged values into two
// columnar Blocks, R and S, in arrival (key) order — the block form of
// CollectRS shared by the region reducers (H-BRJ, broadcast, top-k
// pairs). Each side decodes with a constant number of allocations
// instead of two per point. The S block
// — the one the distance kernels sweep — is prepared with
// vector.KernelAuto; the R block only sources queries and keeps its
// plain float64 rows.
func CollectRSBlocks(values *mapreduce.Values) (rs, ss *vector.Block, err error) {
	rs, ss = &vector.Block{}, &vector.Block{}
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		src, err := codec.PeekSource(v)
		if err != nil {
			return nil, nil, err
		}
		dst := ss
		if src == codec.FromR {
			dst = rs
		}
		if _, _, err := codec.AppendTaggedToBlock(dst, v); err != nil {
			return nil, nil, err
		}
	}
	// The per-side appends only enforce one dimensionality per block; a
	// group whose R and S sides disagree would otherwise meet inside a
	// distance kernel, which treats the mix as a programming-error
	// invariant (panic). Catch it here, the CheckObjects treatment at the
	// block-build site, so a malformed group fails the job instead.
	if rs.Len() > 0 && ss.Len() > 0 && rs.Dim != ss.Dim {
		return nil, nil, fmt.Errorf("driver: reducer group mixes %d-dim R rows with %d-dim S rows", rs.Dim, ss.Dim)
	}
	ss.Prepare(vector.KernelAuto)
	return rs, ss, nil
}

// AppendNeighbors converts sorted candidates into result neighbors,
// appending to dst and returning the extended slice. squared marks
// candidates produced by the L2 block kernels, whose distances are
// squared: each survivor takes its single sqrt here, at emit time — the
// only sqrt of the squared-distance pipeline.
func AppendNeighbors(dst []codec.Neighbor, cands []nnheap.Candidate, squared bool) []codec.Neighbor {
	for _, c := range cands {
		d := c.Dist
		if squared {
			d = math.Sqrt(d) //lint:allow sqrtfree: the emit site — neighbors leave the engine in true L2 units
		}
		dst = append(dst, codec.Neighbor{ID: c.ID, Dist: d})
	}
	return dst
}

// SortResults orders results by R object ID in place.
func SortResults(rs []codec.Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].RID < rs[j].RID })
}
