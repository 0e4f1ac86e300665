// Package topk implements the parallel top-k closest-pairs join of Kim
// and Shim (ICDE'12), reference [11] of the paper — the "special case of
// our proposed problem" its related work singles out: instead of the k
// nearest neighbors of *every* r, find the k closest (r, s) pairs of the
// whole cross product R × S.
//
// The algorithm is exact and runs in three stages:
//
//  1. Driver: sample both datasets and take the k-th smallest sample
//     pair distance as threshold τ. Sample pairs are a subset of all
//     pairs, so τ bounds the true k-th pair distance from above and no
//     qualifying pair is lost.
//  2. MapReduce job 1: partition space into equi-depth slabs along the
//     highest-variance axis; R objects go to their home slab, S objects
//     are replicated to every slab their τ-neighborhood on that axis
//     touches, so each qualifying pair meets in exactly one reducer.
//     Reducers plane-sweep the slab with a shrinking local threshold
//     and keep their k best pairs.
//  3. MapReduce job 2: a single reducer merges the local lists into the
//     global top-k.
package topk

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
)

// Pair is one joined result: an R object, an S object and their distance.
type Pair struct {
	RID, SID int64
	Dist     float64
}

// Options configures a top-k closest-pairs join.
type Options struct {
	// K is the number of closest pairs to return. Required, positive.
	K int
	// Metric is the distance measure; default L2.
	Metric vector.Metric
	// ExcludeSelf drops pairs whose two IDs are equal — the natural
	// setting for self-joins, where every object is at distance zero
	// from itself.
	ExcludeSelf bool
	// Unordered keeps only pairs with RID < SID. For a self-join this
	// returns each unordered pair once instead of in both orientations.
	Unordered bool
	// SampleSize bounds the per-dataset driver sample for the threshold
	// estimate. Default 512 (≈262K sample pairs).
	SampleSize int
	// Seed fixes the sampling.
	Seed int64
}

func (o Options) withDefaults() (Options, error) {
	if o.K <= 0 {
		return o, fmt.Errorf("topk: k must be positive, got %d", o.K)
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 512
	}
	return o, nil
}

const pairBytes = 8 + 8 + 8

// EncodePair returns the wire form of p.
func EncodePair(p Pair) []byte {
	dst := make([]byte, 0, pairBytes)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.RID))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.SID))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Dist))
}

// DecodePair parses a Pair produced by EncodePair.
func DecodePair(b []byte) (Pair, error) {
	if len(b) < pairBytes {
		return Pair{}, fmt.Errorf("topk: pair truncated: %d bytes", len(b))
	}
	return Pair{
		RID:  int64(binary.LittleEndian.Uint64(b)),
		SID:  int64(binary.LittleEndian.Uint64(b[8:])),
		Dist: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
	}, nil
}

// pairHeap is a max-heap of the k best (smallest-distance) pairs seen.
type pairHeap struct {
	k     int
	pairs []Pair
}

func newPairHeap(k int) *pairHeap { return &pairHeap{k: k} }

func (h *pairHeap) full() bool { return len(h.pairs) == h.k }

// threshold is the current k-th best distance, or def while not full.
func (h *pairHeap) threshold(def float64) float64 {
	if !h.full() {
		return def
	}
	return h.pairs[0].Dist
}

func (h *pairHeap) push(p Pair) {
	if len(h.pairs) < h.k {
		h.pairs = append(h.pairs, p)
		h.up(len(h.pairs) - 1)
		return
	}
	if p.Dist >= h.pairs[0].Dist {
		return
	}
	h.pairs[0] = p
	h.down(0)
}

func (h *pairHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.pairs[parent].Dist >= h.pairs[i].Dist {
			break
		}
		h.pairs[parent], h.pairs[i] = h.pairs[i], h.pairs[parent]
		i = parent
	}
}

func (h *pairHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.pairs) && h.pairs[l].Dist > h.pairs[big].Dist {
			big = l
		}
		if r < len(h.pairs) && h.pairs[r].Dist > h.pairs[big].Dist {
			big = r
		}
		if big == i {
			return
		}
		h.pairs[i], h.pairs[big] = h.pairs[big], h.pairs[i]
		i = big
	}
}

// sorted returns the heap's pairs ascending by distance (ties by IDs for
// determinism).
func (h *pairHeap) sorted() []Pair {
	out := append([]Pair(nil), h.pairs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		if out[i].RID != out[j].RID {
			return out[i].RID < out[j].RID
		}
		return out[i].SID < out[j].SID
	})
	return out
}

// admissible reports whether the (r, s) pairing survives the option
// filters.
func admissible(opts Options, rid, sid int64) bool {
	if opts.ExcludeSelf && rid == sid {
		return false
	}
	if opts.Unordered && rid >= sid {
		return false
	}
	return true
}

// Run executes the join. rFile and sFile must contain Tagged records;
// outFile receives the global top-k pairs, one EncodePair record each,
// ascending by distance.
func Run(cluster *mapreduce.Cluster, rFile, sFile, outFile string, opts Options) ([]Pair, *stats.Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	report := &stats.Report{
		Algorithm: "top-k pairs",
		K:         opts.K,
		Nodes:     cluster.Nodes(),
		RSize:     cluster.FS().Size(rFile),
		SSize:     cluster.FS().Size(sFile),
	}

	// ---- Driver: threshold τ, slab axis and boundaries -----------------
	prepStart := time.Now()
	rSample, err := dataset.Sample(cluster.FS(), opts.SampleSize, opts.Seed, rFile)
	if err != nil {
		return nil, nil, err
	}
	sSample, err := dataset.Sample(cluster.FS(), opts.SampleSize, opts.Seed+1, sFile)
	if err != nil {
		return nil, nil, err
	}
	if len(rSample) == 0 || len(sSample) == 0 {
		return nil, nil, fmt.Errorf("topk: empty input")
	}
	tau, samplePairs := sampleThreshold(rSample, sSample, opts)
	report.Pairs += samplePairs
	axis := maxVarianceAxis(append(append([]codec.Object(nil), rSample...), sSample...))
	boundaries := slabBoundaries(rSample, axis, cluster.Nodes())
	report.AddPhase("Threshold Estimation", time.Since(prepStart))

	// ---- Job 1: slab-partitioned pair generation ------------------------
	partialFile := outFile + ".partial"
	job := pairJoinKind.New(pairJoinSpec{
		RFile:      rFile,
		SFile:      sFile,
		Output:     partialFile,
		Tau:        tau,
		Axis:       axis,
		Boundaries: boundaries,
		Opts:       opts,
	})
	js, err := driver.RunJob(cluster, report, "Pair Join", job)
	if err != nil {
		return nil, nil, err
	}
	report.JoinSkew = js.ReduceSkew()

	// ---- Job 2: global top-k merge --------------------------------------
	merge := mergeKind.New(mergeSpec{Input: partialFile, Output: outFile, Opts: opts})
	_, err = driver.RunJob(cluster, report, "Top-k Merge", merge)
	cluster.FS().Remove(partialFile)
	if err != nil {
		return nil, nil, err
	}

	pairs, err := ReadPairs(cluster.FS(), outFile)
	if err != nil {
		return nil, nil, err
	}
	return pairs, report, nil
}

// pairJoinSpec rebuilds the pair-generation job in a worker process. It
// is also the job's task state: the map and reduce functions are its
// methods.
type pairJoinSpec struct {
	RFile, SFile string
	Output       string
	Tau          float64
	Axis         int
	Boundaries   []float64
	Opts         Options
}

var pairJoinKind = mapreduce.DefineKind("topk-pair-join", buildPairJoinJob)

func buildPairJoinJob(s pairJoinSpec) *mapreduce.Job {
	return &mapreduce.Job{
		Name:        "topk-pair-join",
		Input:       []string{s.RFile, s.SFile},
		Output:      s.Output,
		NumReducers: len(s.Boundaries) + 1,
		Partition:   mapreduce.Uint32Partition,
		Map:         s.slabMap,
		Reduce:      s.slabReduce,
	}
}

// slabMap sends each r to its home slab and replicates each s to every
// slab its τ-neighborhood on the axis touches.
func (s *pairJoinSpec) slabMap(ctx *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
	tau, axis, boundaries := s.Tau, s.Axis, s.Boundaries
	t, err := codec.DecodeTagged(rec)
	if err != nil {
		return err
	}
	x := t.Point[axis]
	switch t.Src {
	case codec.FromR:
		emit(codec.Uint32Key(uint32(slabOf(x, boundaries))), rec)
	case codec.FromS:
		lo := slabOf(x-tau, boundaries)
		hi := slabOf(x+tau, boundaries)
		for slab := lo; slab <= hi; slab++ {
			emit(codec.Uint32Key(uint32(slab)), rec)
			ctx.Counter("replicas_s", 1)
		}
	}
	return nil
}

// mergeSpec rebuilds the single-reducer top-k merge job; its Opts are
// the reduce function's.
type mergeSpec struct {
	Input, Output string
	Opts          Options
}

var mergeKind = mapreduce.DefineKind("topk-merge", buildMergeJob)

func buildMergeJob(s mergeSpec) *mapreduce.Job {
	return &mapreduce.Job{
		Name:        "topk-merge",
		Input:       []string{s.Input},
		Output:      s.Output,
		NumReducers: 1,
		Map:         mergeMap,
		Reduce:      s.mergeReduce,
	}
}

func mergeMap(_ *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
	emit(codec.Uint32Key(0), rec)
	return nil
}

func (s *mergeSpec) mergeReduce(ctx *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	opts := s.Opts
	heap := newPairHeap(opts.K)
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		p, err := DecodePair(v)
		if err != nil {
			return err
		}
		heap.push(p)
	}
	top := heap.sorted()
	for _, p := range top {
		emit(nil, EncodePair(p))
	}
	ctx.Counter("result_pairs", int64(len(top)))
	return nil
}

// slabReduce plane-sweeps one slab: R objects against the slab's S
// objects sorted along the slab axis, with the window narrowing as the
// local top-k fills. Both sides decode into columnar blocks (constant
// allocations per group); the S side is axis-ordered through an index
// permutation instead of moving coordinates, and distances run through
// the fused block kernel.
func (s *pairJoinSpec) slabReduce(ctx *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	opts, tau, axis := s.Opts, s.Tau, s.Axis
	rBlk, sBlk, err := driver.CollectRSBlocks(values)
	if err != nil {
		return err
	}
	perm := make([]int, sBlk.Len())
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return sBlk.At(perm[a])[axis] < sBlk.At(perm[b])[axis] })
	sx := make([]float64, len(perm))
	for i, p := range perm {
		sx[i] = sBlk.At(p)[axis]
	}

	heap := newPairHeap(opts.K)
	var pairs int64
	for row := 0; row < rBlk.Len(); row++ {
		rPoint := rBlk.At(row)
		rid := rBlk.IDs[row]
		limit := heap.threshold(tau)
		x := rPoint[axis]
		lo := sort.SearchFloat64s(sx, x-limit)
		for i := lo; i < len(perm); i++ {
			// Re-read the (possibly shrunken) threshold each step: the
			// sweep gets cheaper as better pairs arrive.
			limit = heap.threshold(tau)
			if sx[i] > x+limit {
				break
			}
			si := perm[i]
			if !admissible(opts, rid, sBlk.IDs[si]) {
				continue
			}
			pairs++
			if d := sBlk.DistTo(si, rPoint, opts.Metric); d <= limit {
				heap.push(Pair{RID: rid, SID: sBlk.IDs[si], Dist: d})
			}
		}
	}
	for _, p := range heap.sorted() {
		emit(nil, EncodePair(p))
	}
	ctx.Counter("pairs", pairs)
	ctx.AddWork(pairs)
	return nil
}

// ReadPairs decodes a pair file written by Run.
func ReadPairs(fs dfs.Store, name string) ([]Pair, error) {
	recs, err := fs.Read(name)
	if err != nil {
		return nil, err
	}
	out := make([]Pair, len(recs))
	for i, r := range recs {
		p, err := DecodePair(r)
		if err != nil {
			return nil, fmt.Errorf("topk: pair record %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

// sampleThreshold returns the k-th smallest admissible sample pair
// distance — an upper bound on the true k-th pair distance, because the
// sample cross product is a subset of the full one. When the sample has
// fewer than k admissible pairs the threshold is +Inf (degenerate inputs
// only; the join then just prunes nothing). The second return is the
// number of distances computed.
func sampleThreshold(rSample, sSample []codec.Object, opts Options) (float64, int64) {
	heap := newPairHeap(opts.K)
	var pairs int64
	for _, r := range rSample {
		for _, s := range sSample {
			if !admissible(opts, r.ID, s.ID) {
				continue
			}
			pairs++
			heap.push(Pair{RID: r.ID, SID: s.ID, Dist: opts.Metric.Dist(r.Point, s.Point)})
		}
	}
	if !heap.full() {
		return math.Inf(1), pairs
	}
	return heap.threshold(math.Inf(1)), pairs
}

// maxVarianceAxis picks the dimension with the largest sample variance —
// the axis along which slab pruning is strongest.
func maxVarianceAxis(sample []codec.Object) int {
	if len(sample) == 0 {
		return 0
	}
	dims := sample[0].Point.Dim()
	best, bestVar := 0, -1.0
	for d := 0; d < dims; d++ {
		var sum, sq float64
		for _, o := range sample {
			sum += o.Point[d]
		}
		mean := sum / float64(len(sample))
		for _, o := range sample {
			diff := o.Point[d] - mean
			sq += diff * diff
		}
		if v := sq / float64(len(sample)); v > bestVar {
			best, bestVar = d, v
		}
	}
	return best
}

// slabBoundaries returns n-1 equi-depth cut points of the sample along
// axis, defining n slabs.
func slabBoundaries(sample []codec.Object, axis, n int) []float64 {
	if n <= 1 {
		return nil
	}
	xs := make([]float64, len(sample))
	for i, o := range sample {
		xs[i] = o.Point[axis]
	}
	sort.Float64s(xs)
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		b := xs[i*len(xs)/n]
		// Skip duplicate cut points: a zero-width slab would never
		// receive an R object and only waste a reducer.
		if len(out) == 0 || b > out[len(out)-1] {
			out = append(out, b)
		}
	}
	return out
}

// slabOf returns the index of the slab containing x: slab i spans
// [boundaries[i-1], boundaries[i]). ±Inf clamp to the outermost slabs.
func slabOf(x float64, boundaries []float64) int {
	return sort.SearchFloat64s(boundaries, x)
}

// BruteForce computes the exact top-k closest pairs centrally, for
// verification and as the baseline the MapReduce variant is measured
// against. The returned pairs are ascending by distance; the second
// return is the number of distance computations (the full admissible
// cross product).
func BruteForce(rObjs, sObjs []codec.Object, opts Options) ([]Pair, int64, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, 0, err
	}
	heap := newPairHeap(opts.K)
	var pairs int64
	for _, r := range rObjs {
		for _, s := range sObjs {
			if !admissible(opts, r.ID, s.ID) {
				continue
			}
			pairs++
			heap.push(Pair{RID: r.ID, SID: s.ID, Dist: opts.Metric.Dist(r.Point, s.Point)})
		}
	}
	return heap.sorted(), pairs, nil
}
