// Package lsh implements an LSH-based approximate kNN join on MapReduce
// in the style of RankReduce (Stupar, Michel, Schenkel — LSDS-IR'10),
// the method the paper cites as reference [15] and excludes from its
// exact comparison (§7).
//
// The hash family is the p-stable scheme for the Euclidean metric
// (Gionis et al. [7]; Datar et al.): h(v) = ⌊(a·v + b)/w⌋ with a drawn
// from a Gaussian and b uniform in [0, w). Each of L tables concatenates
// m such hashes into a bucket signature, so near objects collide in at
// least one table with high probability. The join hashes R ∪ S into
// buckets (the map), computes in-bucket candidates (the reduce), and
// merges the L per-table candidate lists per object with the shared
// merge job.
//
// Like H-zkNNJ the result is approximate: every reported neighbor is a
// real S object at its true distance, but a true neighbor that hashes
// into a different bucket than r in every table is missed. Recall rises
// with the table count L and falls with stricter signatures (more
// hashes per table), both at proportional shuffle and computation cost.
package lsh

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/hbrj"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
)

// Options configures a RankReduce-style LSH join.
type Options struct {
	// K is the number of neighbors. Required, positive.
	K int
	// Tables is L, the number of independent hash tables. Default 4.
	Tables int
	// Hashes is m, the number of concatenated hash functions per table.
	// Larger m makes buckets stricter (higher precision, lower recall).
	// Default 4.
	Hashes int
	// BucketWidth is w of the p-stable family. Zero selects an automatic
	// width: twice the mean k-th-neighbor distance estimated on a sample,
	// so a bucket tends to span one k-neighborhood.
	BucketWidth float64
	// SampleSize bounds the driver-side sample used to estimate the
	// automatic bucket width. Default 2048.
	SampleSize int
	// Seed fixes the hash functions and the sampling.
	Seed int64
}

func (o Options) withDefaults() (Options, error) {
	if o.K <= 0 {
		return o, fmt.Errorf("lsh: k must be positive, got %d", o.K)
	}
	if o.Tables <= 0 {
		o.Tables = 4
	}
	if o.Hashes <= 0 {
		o.Hashes = 4
	}
	if o.BucketWidth < 0 {
		return o, fmt.Errorf("lsh: bucket width must not be negative, got %g", o.BucketWidth)
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 2048
	}
	return o, nil
}

// table is one p-stable hash table: m Gaussian projection vectors and
// their uniform offsets. Signatures are ⌊(A_i·v + B_i)/w⌋ for each i.
// Fields are exported so tables survive the gob trip to worker
// processes.
type table struct {
	A [][]float64
	B []float64
}

// signature writes v's bucket signature under t into dst (reused across
// calls) and returns it.
func (t *table) signature(dst []int64, v vector.Point, w float64) []int64 {
	dst = dst[:0]
	for i, a := range t.A {
		var dot float64
		for d, x := range v {
			dot += a[d] * x
		}
		dst = append(dst, int64(math.Floor((dot+t.B[i])/w)))
	}
	return dst
}

// newTables draws L tables of m Gaussian projections over dim dimensions.
func newTables(rng *rand.Rand, l, m, dim int, w float64) []table {
	ts := make([]table, l)
	for t := range ts {
		ts[t].A = make([][]float64, m)
		ts[t].B = make([]float64, m)
		for i := 0; i < m; i++ {
			a := make([]float64, dim)
			for d := range a {
				a[d] = rng.NormFloat64()
			}
			ts[t].A[i] = a
			ts[t].B[i] = rng.Float64() * w
		}
	}
	return ts
}

// bucketKey renders a table index and signature as a binary shuffle key:
// the table index as a fixed-width prefix, then each signature component
// in its order-preserving 8-byte encoding — byte-comparable and
// collision-free by construction for any table count.
func bucketKey(t int, sig []int64) []byte {
	key := make([]byte, 0, 4+8*len(sig))
	key = append(key, codec.Uint32Key(uint32(t))...)
	for _, v := range sig {
		key = codec.AppendInt64Key(key, v)
	}
	return key
}

// Run executes the approximate join. rFile and sFile must contain Tagged
// records; outFile receives one codec.Result per R object holding its
// approximate k nearest neighbors. The L2 metric is assumed — the
// p-stable hash family is Euclidean.
func Run(cluster *mapreduce.Cluster, rFile, sFile, outFile string, opts Options) (*stats.Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	report := &stats.Report{
		Algorithm: "RankReduce",
		K:         opts.K,
		Nodes:     cluster.Nodes(),
		RSize:     cluster.FS().Size(rFile),
		SSize:     cluster.FS().Size(sFile),
	}

	// ---- Driver: sample, estimate bucket width, draw hash tables -------
	prepStart := time.Now()
	sample, err := dataset.Sample(cluster.FS(), opts.SampleSize, opts.Seed, rFile, sFile)
	if err != nil {
		return nil, err
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("lsh: empty input")
	}
	dims := sample[0].Point.Dim()
	w := opts.BucketWidth
	if w == 0 {
		w = estimateWidth(sample, opts.K)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	tables := newTables(rng, opts.Tables, opts.Hashes, dims, w)
	report.AddPhase("LSH Preprocessing", time.Since(prepStart))

	// ---- Job 1: hash into buckets, join within buckets -----------------
	partialFile := outFile + ".partial"
	job := bucketKind.New(bucketSpec{
		RFile:  rFile,
		SFile:  sFile,
		Output: partialFile,
		Tables: tables,
		W:      w,
		Opts:   opts,
	})
	js, err := driver.RunJob(cluster, report, "Bucket Join", job)
	if err != nil {
		return nil, err
	}
	report.JoinSkew = js.ReduceSkew()

	// ---- Job 2: merge the L candidate lists per object ------------------
	_, err = driver.RunJob(cluster, report, "Result Merging", hbrj.MergeJob(partialFile, outFile, opts.K))
	cluster.FS().Remove(partialFile)
	if err != nil {
		return nil, err
	}
	return report, nil
}

// bucketSpec rebuilds the bucket-join job in a worker process.
type bucketSpec struct {
	RFile, SFile string
	Output       string
	Tables       []table
	W            float64
	Opts         Options
}

var bucketKind = mapreduce.DefineKind("lsh-bucket-join", buildBucketJob)

func buildBucketJob(s bucketSpec) *mapreduce.Job {
	return &mapreduce.Job{
		Name:   "lsh-bucket-join",
		Input:  []string{s.RFile, s.SFile},
		Output: s.Output,
		Side:   map[string]any{"tables": s.Tables, "w": s.W, "opts": s.Opts},
		Map:    bucketMap,
		Reduce: bucketReduce,
	}
}

// bucketMap hashes each object into its bucket under every table.
func bucketMap(ctx *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
	tables := ctx.Side("tables").([]table)
	w := ctx.Side("w").(float64)
	opts := ctx.Side("opts").(Options)
	t, err := codec.DecodeTagged(rec)
	if err != nil {
		return err
	}
	sig := make([]int64, 0, opts.Hashes)
	for ti := range tables {
		sig = tables[ti].signature(sig, t.Point, w)
		emit(bucketKey(ti, sig), rec)
		if t.Src == codec.FromS {
			ctx.Counter("replicas_s", 1)
		}
	}
	return nil
}

// bucketReduce verifies one bucket's candidates: every R object in it is
// paired with every S object in it, true L2 distances computed with the
// query-batched block kernels via driver.JoinBlocksKNN (squared until
// the emit-time sqrt). Each r gets a partial Result — empty when the
// bucket holds no S objects, so the merge job still emits a line for it.
func bucketReduce(ctx *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	opts := ctx.Side("opts").(Options)
	rBlk, sBlk, err := driver.CollectRSBlocks(values)
	if err != nil {
		return err
	}
	driver.JoinBlocksKNN(ctx, rBlk, sBlk, opts.K, vector.L2, emit)
	return nil
}

// estimateWidth returns twice the mean k-th-neighbor distance over up to
// 64 sample points, measured within the sample — a bucket width at which
// one bucket tends to cover one k-neighborhood. Falls back to 1 when the
// sample is degenerate (all points coincide).
func estimateWidth(sample []codec.Object, k int) float64 {
	probes := len(sample)
	if probes > 64 {
		probes = 64
	}
	heap := nnheap.NewKHeap(k)
	var sum float64
	var cnt int
	for i := 0; i < probes; i++ {
		heap.Reset()
		for j, o := range sample {
			if j == i {
				continue
			}
			heap.Push(nnheap.Candidate{ID: o.ID, Dist: vector.Dist(sample[i].Point, o.Point)})
		}
		if heap.Len() == 0 {
			continue
		}
		sum += heap.Top().Dist // k-th smallest (max of the heap)
		cnt++
	}
	if cnt == 0 || sum == 0 {
		return 1
	}
	return 2 * sum / float64(cnt)
}
