package planner

import (
	"fmt"
	"math"

	"knnjoin/internal/codec"
	"knnjoin/internal/dfs"
	"knnjoin/internal/pivot"
	"knnjoin/internal/vector"
)

// DataStats holds everything the cost model knows about a workload: the
// dataset sizes, retained uniform samples of both sides, and the sampled
// shape statistics — estimated intrinsic dimensionality and cluster
// skew — that tell uniform noise, Gaussian clusters and Zipf-skewed
// density apart. It is computed once per planning call and shared by
// every candidate plan's evaluation.
type DataStats struct {
	// RSize and SSize are the full dataset sizes; Dims the shared
	// dimensionality.
	RSize, SSize int
	Dims         int

	// RSample and SSample are uniform reservoir samples of each side;
	// RFrac and SFrac the sampling fractions |sample| / |dataset| the
	// model scales sampled counts back up with.
	RSample, SSample []codec.Object
	RFrac, SFrac     float64

	// RecBytes is the encoded size of one Tagged record (fixed for a
	// given dimensionality); JoinKeyBytes and RegionKeyBytes the sizes of
	// the composite shuffle keys the join jobs attach to each record.
	// A JoinKey holds the record's tags, so a JoinKey-keyed record
	// carries only the coordinates beside it (joinRecordBytes).
	RecBytes       int
	JoinKeyBytes   int
	RegionKeyBytes int

	// IntrinsicDim is the two-NN maximum-likelihood estimate (Facco et
	// al. 2017) of the data's intrinsic dimensionality, clamped to
	// [1, Dims]. High-dimensional embeddings of low-dimensional
	// structure (the Forest dataset's clustered terrain) score low; true
	// uniform noise scores near Dims. Index-based plans (H-BRJ's R-tree)
	// degrade as this grows.
	IntrinsicDim float64

	// ClusterSkew is the coefficient of variation of partition sizes
	// when the S sample is Voronoi-partitioned over a small probe pivot
	// set: ~0.3 for uniform data, ≥1 for heavily clustered or
	// Zipf-skewed data where fixed-grid plans overload one reducer.
	ClusterSkew float64
}

// probePivots is the probe partition count behind ClusterSkew.
const probePivots = 16

// intrinsicDimProbes caps the two-NN estimate's query count.
const intrinsicDimProbes = 256

// Measure computes the sampled statistics of a workload held in memory.
// The sample size and seed come from the Options (SampleSize zero
// selects the default).
func Measure(r, s []codec.Object, opts Options) (*DataStats, error) {
	opts = opts.withDefaults()
	if len(r) == 0 || len(s) == 0 {
		return nil, fmt.Errorf("planner: cannot plan over an empty dataset (|R|=%d, |S|=%d)", len(r), len(s))
	}
	rs := SampleObjects(r, opts.SampleSize, opts.Seed)
	ss := SampleObjects(s, opts.SampleSize, opts.Seed+1)
	return measure(rs, ss, len(r), len(s), opts)
}

// MeasureStore computes the same statistics over two DFS files of Tagged
// records, sampling one input split at a time.
func MeasureStore(fs dfs.Store, rFile, sFile string, opts Options) (*DataStats, error) {
	opts = opts.withDefaults()
	rs, rSize, err := SampleStore(fs, rFile, opts.SampleSize, opts.Seed)
	if err != nil {
		return nil, err
	}
	ss, sSize, err := SampleStore(fs, sFile, opts.SampleSize, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	if rSize == 0 || sSize == 0 {
		return nil, fmt.Errorf("planner: cannot plan over an empty dataset (|R|=%d, |S|=%d)", rSize, sSize)
	}
	return measure(rs, ss, rSize, sSize, opts)
}

func measure(rSample, sSample []codec.Object, rSize, sSize int, opts Options) (*DataStats, error) {
	// Dimensionality must agree before any sampled geometry runs —
	// Metric.Dist treats a mix as a programming error and panics.
	dim := rSample[0].Point.Dim()
	for _, set := range [][]codec.Object{rSample, sSample} {
		for i := range set {
			if d := set[i].Point.Dim(); d != dim {
				return nil, fmt.Errorf("planner: object %d has %d dims, want %d", set[i].ID, d, dim)
			}
		}
	}
	probe := codec.Tagged{Object: rSample[0], Src: codec.FromR, Partition: 0}
	ds := &DataStats{
		RSize:          rSize,
		SSize:          sSize,
		Dims:           rSample[0].Point.Dim(),
		RSample:        rSample,
		SSample:        sSample,
		RFrac:          float64(len(rSample)) / float64(rSize),
		SFrac:          float64(len(sSample)) / float64(sSize),
		RecBytes:       len(codec.EncodeTagged(probe)),
		JoinKeyBytes:   len(codec.JoinKey(0, probe)),
		RegionKeyBytes: len(codec.RegionKey(0, probe)),
	}
	ds.IntrinsicDim = intrinsicDim(sSample, opts.Metric, ds.Dims)
	ds.ClusterSkew = clusterSkew(sSample, opts.Metric)
	return ds, nil
}

// intrinsicDim is the two-NN MLE of intrinsic dimensionality: for each
// probe point, μ = d₂/d₁ (second- over first-nearest-neighbor distance
// within the sample); d̂ = n / Σ ln μ. Duplicate-heavy probes (d₁ = 0)
// are skipped; a degenerate sample falls back to the ambient Dims.
func intrinsicDim(sample []codec.Object, m vector.Metric, dims int) float64 {
	if len(sample) < 3 {
		return float64(dims)
	}
	stride := len(sample) / intrinsicDimProbes
	if stride < 1 {
		stride = 1
	}
	var sumLog float64
	var used int
	for i := 0; i < len(sample); i += stride {
		d1, d2 := math.Inf(1), math.Inf(1)
		for j := range sample {
			if j == i {
				continue
			}
			d := m.Dist(sample[i].Point, sample[j].Point)
			switch {
			case d < d1:
				d1, d2 = d, d1
			case d < d2:
				d2 = d
			}
		}
		if d1 > 0 && d2 > d1 && !math.IsInf(d2, 1) {
			sumLog += math.Log(d2 / d1)
			used++
		}
	}
	if used == 0 || sumLog <= 0 {
		return float64(dims)
	}
	d := float64(used) / sumLog
	return math.Max(1, math.Min(float64(dims), d))
}

// clusterSkew Voronoi-partitions the sample over probePivots pivots
// drawn from it and returns the coefficient of variation (stddev over
// mean) of the partition sizes — a dimensionless skew measure that does
// not depend on the sample size. The probe pivots are farthest-first
// (geometrically spread), so a dense Zipf cluster falls into few cells
// and shows up as one overloaded partition instead of being split
// across many density-proportional pivots.
func clusterSkew(sample []codec.Object, m vector.Metric) float64 {
	if len(sample) < 2*probePivots {
		return 0
	}
	pivots, err := pivot.Select(pivot.Farthest, sample, probePivots, pivot.Options{Metric: m, Seed: 1})
	if err != nil {
		return 0
	}
	counts := make([]float64, probePivots)
	for _, o := range sample {
		best, bestD := 0, m.Dist(o.Point, pivots[0])
		for j := 1; j < len(pivots); j++ {
			if d := m.Dist(o.Point, pivots[j]); d < bestD {
				best, bestD = j, d
			}
		}
		counts[best]++
	}
	mean := float64(len(sample)) / probePivots
	var sq float64
	for _, c := range counts {
		sq += (c - mean) * (c - mean)
	}
	return math.Sqrt(sq/probePivots) / mean
}
