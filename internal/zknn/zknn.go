package zknn

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
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

// Options configures an H-zkNNJ run.
type Options struct {
	// K is the number of neighbors. Required, positive.
	K int
	// Shifts is α, the number of shifted copies (≥1; the first copy is
	// unshifted). Default 3, the customary accuracy/cost sweet spot.
	Shifts int
	// CandidatesPerSide is how many z-order neighbors to examine on each
	// side of r's curve position. Default 2·K.
	CandidatesPerSide int
	// SampleSize drives boundary estimation on the driver. Default 4096.
	SampleSize int
	// Seed fixes the shift vectors and sampling.
	Seed int64
}

func (o Options) withDefaults() (Options, error) {
	if o.K <= 0 {
		return o, fmt.Errorf("zknn: k must be positive, got %d", o.K)
	}
	if o.Shifts <= 0 {
		o.Shifts = 3
	}
	if o.CandidatesPerSide <= 0 {
		o.CandidatesPerSide = 2 * o.K
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 4096
	}
	return o, nil
}

// zRecord is what crosses the shuffle: a tagged object plus its z-value
// under one shift. Encoded as shift byte + z + the usual Tagged record.
func encodeZ(shift int, z uint64, base []byte) []byte {
	out := make([]byte, 0, 9+len(base))
	out = append(out, byte(shift))
	out = binary.LittleEndian.AppendUint64(out, z)
	return append(out, base...)
}

// The reducer reads the layout in place: the z at [1:9] and the Tagged
// payload from offset 9, which decodes straight into a columnar block.

// Run executes the approximate join. rFile and sFile must contain Tagged
// records; outFile receives one codec.Result per R object, each holding
// its approximate k nearest neighbors. The L2 metric is assumed — the
// Z-curve's locality argument is Euclidean.
func Run(cluster *mapreduce.Cluster, rFile, sFile, outFile string, opts Options) (*stats.Report, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	report := &stats.Report{
		Algorithm: "H-zkNNJ",
		K:         opts.K,
		Nodes:     cluster.Nodes(),
		RSize:     cluster.FS().Size(rFile),
		SSize:     cluster.FS().Size(sFile),
	}

	// ---- Driver: bounding box, shift vectors, boundary estimation ------
	prepStart := time.Now()
	sample, err := dataset.Sample(cluster.FS(), opts.SampleSize, opts.Seed, rFile, sFile)
	if err != nil {
		return nil, err
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("zknn: empty input")
	}
	dims := sample[0].Point.Dim()
	min, max := boundingBox(sample, dims)
	// Shift magnitude: a few percent of the box diagonal per dimension.
	span := 0.0
	for d := 0; d < dims; d++ {
		span += max[d] - min[d]
	}
	shiftPad := span / float64(dims) * 0.25
	q := newQuantizer(min, max, shiftPad)

	rng := rand.New(rand.NewSource(opts.Seed))
	shifts := make([][]float64, opts.Shifts)
	for i := 1; i < opts.Shifts; i++ { // shifts[0] stays nil: identity
		v := make([]float64, dims)
		for d := range v {
			v[d] = rng.Float64() * shiftPad
		}
		shifts[i] = v
	}

	// Boundaries per shift: equi-depth on the sample's z-values, one
	// range per node.
	nRanges := cluster.Nodes()
	boundaries := make([][]uint64, opts.Shifts)
	for i := range shifts {
		zs := make([]uint64, len(sample))
		for j, o := range sample {
			zs[j] = q.Z(o.Point, shifts[i])
		}
		sort.Slice(zs, func(a, b int) bool { return zs[a] < zs[b] })
		bs := make([]uint64, nRanges-1)
		for b := range bs {
			bs[b] = zs[(b+1)*len(zs)/nRanges]
		}
		boundaries[i] = bs
	}
	report.AddPhase("Z Preprocessing", time.Since(prepStart))

	// ---- Job 1: route shifted copies to ranges, harvest candidates -----
	partialFile := outFile + ".partial"
	job := candidateKind.New(candidateSpec{
		RFile:      rFile,
		SFile:      sFile,
		Output:     partialFile,
		Min:        min,
		Max:        max,
		ShiftPad:   shiftPad,
		Shifts:     shifts,
		Boundaries: boundaries,
		Opts:       opts,
	})
	js, err := driver.RunJob(cluster, report, "Candidate Join", job)
	if err != nil {
		return nil, err
	}
	report.JoinSkew = js.ReduceSkew()

	// ---- Job 2: merge the α candidate lists per object ------------------
	_, err = driver.RunJob(cluster, report, "Result Merging", hbrj.MergeJob(partialFile, outFile, opts.K))
	cluster.FS().Remove(partialFile)
	if err != nil {
		return nil, err
	}
	return report, nil
}

// candidateSpec rebuilds the candidate job in a worker process. The
// quantizer is carried as its construction inputs (min, max, shiftPad)
// because newQuantizer derives the rest deterministically.
type candidateSpec struct {
	RFile, SFile string
	Output       string
	Min, Max     []float64
	ShiftPad     float64
	Shifts       [][]float64
	Boundaries   [][]uint64
	Opts         Options
}

var candidateKind = mapreduce.DefineKind("zknn-candidates", buildCandidateJob)

// candidateTask is the candidate job's task state: the spec with its
// bounding box rebuilt into a quantizer.
type candidateTask struct {
	candidateSpec
	q *quantizer
}

func buildCandidateJob(s candidateSpec) *mapreduce.Job {
	nRanges := len(s.Boundaries[0]) + 1
	task := &candidateTask{candidateSpec: s, q: newQuantizer(s.Min, s.Max, s.ShiftPad)}
	return &mapreduce.Job{
		Name:        "zknn-candidates",
		Input:       []string{s.RFile, s.SFile},
		Output:      s.Output,
		NumReducers: s.Opts.Shifts * nRanges,
		Partition:   mapreduce.Uint32Partition,
		Map:         task.candidateMap,
		Reduce:      task.candidateReduce,
	}
}

// candidateMap emits one shifted copy per α to its curve range, with
// boundary-adjacent replication on the S side.
func (task *candidateTask) candidateMap(ctx *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
	q, shifts, boundaries := task.q, task.Shifts, task.Boundaries
	t, err := codec.DecodeTagged(rec)
	if err != nil {
		return err
	}
	for i := range shifts {
		z := q.Z(t.Point, shifts[i])
		rg := rangeOf(z, boundaries[i])
		key := i*len(boundaries[i]) + i + rg // shift-major reducer id
		emit(codec.Uint32Key(uint32(key)), encodeZ(i, z, rec))
		if t.Src == codec.FromS {
			ctx.Counter("replicas_s", 1)
			// Replicate boundary-adjacent S copies so every r sees
			// its full z-neighborhood despite the range split.
			if rg > 0 {
				emit(codec.Uint32Key(uint32(key-1)), encodeZ(i, z, rec))
				ctx.Counter("replicas_s", 1)
			}
			if rg < len(boundaries[i]) {
				emit(codec.Uint32Key(uint32(key+1)), encodeZ(i, z, rec))
				ctx.Counter("replicas_s", 1)
			}
		}
	}
	return nil
}

// candidateReduce sorts one curve range and emits, for every r in it, the
// true distances to its z-order neighborhood in S. Both sides decode into
// columnar blocks (constant allocations per group); S is curve-ordered
// through an index permutation instead of moving coordinates, and the
// candidate distances run through the fused squared-L2 kernel with the
// sqrt taken at emit time.
func (task *candidateTask) candidateReduce(ctx *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
	opts := task.Opts
	rBlk, sBlk := &vector.Block{}, &vector.Block{}
	var rz, sz []uint64
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		if len(v) < 9 {
			return fmt.Errorf("zknn: record truncated")
		}
		z := binary.LittleEndian.Uint64(v[1:9])
		src, err := codec.PeekSource(v[9:])
		if err != nil {
			return err
		}
		if src == codec.FromR {
			rz = append(rz, z)
			_, _, err = codec.AppendTaggedToBlock(rBlk, v[9:])
		} else {
			sz = append(sz, z)
			_, _, err = codec.AppendTaggedToBlock(sBlk, v[9:])
		}
		if err != nil {
			return err
		}
	}
	// Curve order for S: a permutation sorted by (z, ID), plus the sorted
	// z-values for the per-r binary search.
	perm := make([]int, sBlk.Len())
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		if sz[perm[a]] != sz[perm[b]] {
			return sz[perm[a]] < sz[perm[b]]
		}
		return sBlk.IDs[perm[a]] < sBlk.IDs[perm[b]]
	})
	zSorted := make([]uint64, len(perm))
	for i, p := range perm {
		zSorted[i] = sz[p]
	}

	var pairs int64
	heap := nnheap.NewKHeapAmong(opts.K, sBlk.Len())
	var cbuf []nnheap.Candidate
	var nbuf []codec.Neighbor
	for row := 0; row < rBlk.Len(); row++ {
		rPoint := rBlk.At(row)
		pos := sort.Search(len(zSorted), func(i int) bool { return zSorted[i] >= rz[row] })
		lo := pos - opts.CandidatesPerSide
		if lo < 0 {
			lo = 0
		}
		hi := pos + opts.CandidatesPerSide
		if hi > len(zSorted) {
			hi = len(zSorted)
		}
		heap.Reset()
		for x := lo; x < hi; x++ {
			si := perm[x]
			pairs++
			heap.Push(nnheap.Candidate{ID: sBlk.IDs[si], Dist: sBlk.SqDistTo(si, rPoint)})
		}
		cbuf = heap.AppendSorted(cbuf[:0])
		nbuf = driver.AppendNeighbors(nbuf[:0], cbuf, true)
		emit(nil, codec.EncodeResult(codec.Result{RID: rBlk.IDs[row], Neighbors: nbuf}))
	}
	ctx.Counter("pairs", pairs)
	ctx.AddWork(pairs)
	return nil
}

// boundingBox computes per-dimension min/max of the sample.
func boundingBox(objs []codec.Object, dims int) (min, max []float64) {
	min = make([]float64, dims)
	max = make([]float64, dims)
	for d := 0; d < dims; d++ {
		min[d], max[d] = objs[0].Point[d], objs[0].Point[d]
	}
	for _, o := range objs {
		for d, v := range o.Point {
			if v < min[d] {
				min[d] = v
			}
			if v > max[d] {
				max[d] = v
			}
		}
	}
	return min, max
}

// Recall measures result quality against an exact join: the fraction of
// (r, distance) pairs whose distance is within tolerance of the exact
// k-th list. Exact and approx must be sorted by RID with neighbors
// ascending (the standard output contract).
func Recall(approx, exact []codec.Result) float64 {
	if len(exact) == 0 {
		return 1
	}
	byID := make(map[int64]codec.Result, len(approx))
	for _, a := range approx {
		byID[a.RID] = a
	}
	var hit, total int
	for _, e := range exact {
		a := byID[e.RID]
		got := make(map[int64]bool, len(a.Neighbors))
		for _, nb := range a.Neighbors {
			got[nb.ID] = true
		}
		for i, nb := range e.Neighbors {
			total++
			if got[nb.ID] {
				hit++
				continue
			}
			// Distance-equal stand-ins count as hits: ties are legal.
			if i < len(a.Neighbors) && a.Neighbors[i].Dist <= nb.Dist+1e-12 {
				hit++
			}
		}
	}
	return float64(hit) / float64(total)
}
