// Package theta implements 1-Bucket-Theta (Okcan and Riedewald,
// SIGMOD'11), reference [14] of the paper: a single-job randomized
// framework that evaluates a join with an *arbitrary* condition by
// tiling the |R|×|S join matrix into a grid of reducer regions.
//
// Every R object is assigned a uniform random row of the matrix and
// shipped to all regions covering that row; every S object gets a random
// column and is shipped to all regions covering it. Each reducer
// therefore owns a rectangle of the cross product, and every (r, s) pair
// meets in exactly one region regardless of the join condition — here,
// the kNN predicate, evaluated per region with a bounded heap, followed
// by the shared merge job that keeps each r's global k best.
//
// Compared to H-BRJ's √N×√N ID-hash blocks the tiling is chosen for the
// actual |R|/|S| ratio and the assignment is random rather than
// ID-derived, so adversarial ID distributions cannot skew the regions —
// the framework's selling point. Like H-BRJ it computes the full cross
// product spread over N reducers; it is a baseline, not a contender
// against PGBJ's pruning.
package theta

import (
	"fmt"
	"hash/fnv"
	"math"

	"knnjoin/internal/codec"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/hbrj"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
)

// Options configures a 1-Bucket-Theta kNN join.
type Options struct {
	// K is the number of neighbors. Required, positive.
	K int
	// Metric is the distance measure; default L2.
	Metric vector.Metric
	// Rows and Cols fix the matrix tiling. Zero selects the balanced
	// tiling for the cluster size and the |R|/|S| ratio.
	Rows, Cols int
	// Seed fixes the random row/column assignment.
	Seed int64
}

func (o Options) withDefaults() (Options, error) {
	if o.K <= 0 {
		return o, fmt.Errorf("theta: k must be positive, got %d", o.K)
	}
	if o.Rows < 0 || o.Cols < 0 {
		return o, fmt.Errorf("theta: negative tiling %dx%d", o.Rows, o.Cols)
	}
	return o, nil
}

// Tiling returns the (rows, cols) grid for joining rSize×sSize on n
// reducers: region areas are balanced when rows/cols ≈ rSize/sSize, so
// rows = √(n·rSize/sSize) rounded into [1, n], cols = n/rows.
func Tiling(rSize, sSize, n int) (rows, cols int) {
	if n <= 1 || rSize <= 0 || sSize <= 0 {
		return 1, 1
	}
	rows = int(math.Round(math.Sqrt(float64(n) * float64(rSize) / float64(sSize)))) //lint:allow sqrtfree: √(n·|R|/|S|) sizes the block grid once per job, no distance involved
	if rows < 1 {
		rows = 1
	}
	if rows > n {
		rows = n
	}
	cols = n / rows
	if cols < 1 {
		cols = 1
	}
	return rows, cols
}

// assign maps an object ID to a deterministic pseudo-random cell index in
// [0, n) — uniform regardless of the ID distribution, unlike an ID-hash
// block scheme. The seed decorrelates the R and S assignments.
func assign(id int64, seed int64, n int) int {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(id >> (8 * i))
		buf[8+i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	return int(h.Sum64() % uint64(n))
}

// Run executes the join. rFile and sFile must contain Tagged records;
// outFile receives one codec.Result per R object.
func Run(cluster *mapreduce.Cluster, rFile, sFile, outFile string, opts Options) (*stats.Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	report := &stats.Report{
		Algorithm: "1-Bucket-Theta",
		K:         opts.K,
		Nodes:     cluster.Nodes(),
		RSize:     cluster.FS().Size(rFile),
		SSize:     cluster.FS().Size(sFile),
	}
	rows, cols := opts.Rows, opts.Cols
	if rows == 0 || cols == 0 {
		rows, cols = Tiling(report.RSize, report.SSize, cluster.Nodes())
	}

	partialFile := outFile + ".partial"
	job := regionKind.New(regionSpec{
		RFile:  rFile,
		SFile:  sFile,
		Output: partialFile,
		Rows:   rows,
		Cols:   cols,
		Opts:   opts,
	})
	js, err := driver.RunJob(cluster, report, "Region Join", job)
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

// regionSpec rebuilds the region-join job in a worker process.
type regionSpec struct {
	RFile, SFile string
	Output       string
	Rows, Cols   int
	Opts         Options
}

var regionKind = mapreduce.DefineKind("theta-region-join", buildRegionJob)

func buildRegionJob(s regionSpec) *mapreduce.Job {
	return &mapreduce.Job{
		Name:           "theta-region-join",
		Input:          []string{s.RFile, s.SFile},
		Output:         s.Output,
		NumReducers:    s.Rows * s.Cols,
		Partition:      mapreduce.Uint32Partition,
		GroupKeyPrefix: codec.RegionKeyGroupPrefix,
		Side: map[string]any{
			"opts": s.Opts,
			"rows": s.Rows,
			"cols": s.Cols,
		},
		Map:    regionMap,
		Reduce: regionReduce,
	}
}

// regionMap ships each r to every region covering its random row and
// each s to every region covering its random column.
func regionMap(ctx *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
	opts := ctx.Side("opts").(Options)
	rows := ctx.Side("rows").(int)
	cols := ctx.Side("cols").(int)
	t, err := codec.DecodeTagged(rec)
	if err != nil {
		return err
	}
	switch t.Src {
	case codec.FromR:
		row := assign(t.ID, opts.Seed, rows)
		for col := 0; col < cols; col++ {
			emit(codec.RegionKey(row*cols+col, t), rec)
		}
	case codec.FromS:
		col := assign(t.ID, opts.Seed+1, cols)
		ctx.Counter("replicas_s", int64(rows))
		for row := 0; row < rows; row++ {
			emit(codec.RegionKey(row*cols+col, t), rec)
		}
	}
	return nil
}

// regionReduce joins one matrix region: the local kNN of its R rows
// against its S columns, by nested loop with a bounded heap — the
// framework assumes nothing about the join condition, so no index. The
// loop runs on the query-batched block kernels via driver.JoinBlocksKNN:
// one decode per group, S swept in cache-sized panels across batches of
// R rows, squared distances under L2 until the emit-time sqrt.
func regionReduce(ctx *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	opts := ctx.Side("opts").(Options)
	rBlk, sBlk, err := driver.CollectRSBlocks(values)
	if err != nil {
		return err
	}
	driver.JoinBlocksKNN(ctx, rBlk, sBlk, opts.K, opts.Metric, emit)
	return nil
}
