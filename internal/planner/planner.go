// Package planner is the cost-based query planner: it decides which join
// algorithm and which tuning knobs (pivot count, pivot-selection
// strategy, grouping strategy) to run for a given workload, instead of
// making the caller hand-pick them.
//
// Planning happens in three steps, all deterministic per seed:
//
//  1. Statistics. A one-pass reservoir sampler draws a uniform sample of
//     each dataset (from memory or a DFS Store); from the samples the
//     planner measures intrinsic dimensionality (two-NN MLE) and cluster
//     skew (partition-size variation over probe pivots) — see DataStats.
//  2. Cost model. For every candidate configuration — each algorithm
//     across a grid of NumPivots × PivotStrategy × GroupStrategy — the
//     paper's own machinery is re-run on the samples: pivots are
//     selected, both samples Voronoi-partitioned, summary tables built
//     at the sample-scaled k, θ bounds derived (Algorithm 1), groups
//     formed (§5.2), and Theorem 7's replication RP(S) evaluated exactly
//     on the sampled pivot-distance lists. Reducer compute is predicted
//     by replaying Algorithm 3's pruning (Corollary 1 hyperplanes,
//     Theorem 2 windows) over strided probe objects. Sampled counts
//     scale back by the sampling fractions — see cost.go.
//  3. Ranking. Each prediction collapses to a scalar score (job
//     overhead + max(parallel share, critical path) + spill round-trip)
//     and the plans sort ascending. Approximate algorithms (ZKNN, LSH)
//     are ranked but flagged, and skipped by Best unless requested.
//
// The public API surfaces this as knnjoin.AutoPlan and Algorithm Auto;
// cmd/knnplan is the standalone EXPLAIN tool; the plan benchmark suite
// (cmd/shufflebench -suite plan) regression-gates the ranking against
// measured wall times.
package planner

import (
	"fmt"
	"math"
	"sort"

	"knnjoin/internal/pgbj"
	"knnjoin/internal/pivot"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
)

// DefaultSampleSize is the per-dataset reservoir capacity used when
// Options.SampleSize is zero: large enough that the Theorem-7 replication
// estimate is stable, small enough that planning costs milliseconds.
const DefaultSampleSize = 2048

// DefaultMaxProbes caps how many sampled R objects the Algorithm-3
// replay probes per candidate plan.
const DefaultMaxProbes = 256

// Options configures a planning call.
type Options struct {
	// K is the number of neighbors per R object. Required, positive.
	K int
	// Nodes is the simulated cluster size; default 4.
	Nodes int
	// Metric is the distance measure; default L2.
	Metric vector.Metric
	// MemLimit is the resident shuffle budget (0 = unlimited): plans
	// whose shuffle exceeds it pay the predicted spill round-trip.
	MemLimit int64
	// SampleSize is the per-dataset reservoir capacity; 0 selects
	// DefaultSampleSize.
	SampleSize int
	// MaxProbes caps the Algorithm-3 replay's probe count; 0 selects
	// DefaultMaxProbes.
	MaxProbes int
	// Seed fixes sampling and every randomized choice.
	Seed int64
	// NumPivots pins the pivot grid to one value when positive; 0 lets
	// the planner sweep its grid.
	NumPivots int
	// PivotStrategies is the strategy grid; nil selects random and
	// farthest (k-means costs more to evaluate than it tends to return).
	PivotStrategies []pivot.Strategy
	// AllowApproximate lets Best return a flagged approximate plan
	// (ZKNN, LSH) when it ranks first.
	AllowApproximate bool
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	if o.SampleSize <= 0 {
		o.SampleSize = DefaultSampleSize
	}
	if o.MaxProbes <= 0 {
		o.MaxProbes = DefaultMaxProbes
	}
	if o.PivotStrategies == nil {
		o.PivotStrategies = []pivot.Strategy{pivot.Random, pivot.Farthest}
	}
	return o
}

// Plans evaluates the full candidate grid against the measured
// statistics and returns every plan ranked by ascending predicted cost.
// The first exact plan is the planner's pick (see Best).
func Plans(ds *DataStats, opts Options) ([]Plan, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("planner: Options.K must be positive, got %d", opts.K)
	}
	opts = opts.withDefaults()
	plans := []Plan{
		costBruteForce(ds, opts),
		costBroadcast(ds, opts),
		costHBRJ(ds, opts),
		costTheta(ds, opts),
	}
	if opts.Metric == vector.L2 {
		// The approximate joins are Euclidean-only (z-order locality and
		// the p-stable hash family); under other metrics they would not
		// be executable plans.
		plans = append(plans, costZKNN(ds, opts), costLSH(ds, opts))
	}
	for _, numPivots := range pivotGrid(ds, opts) {
		for _, strat := range opts.PivotStrategies {
			st, err := buildPivotState(ds, opts, numPivots, strat)
			if err != nil {
				return nil, err
			}
			for _, gs := range []pgbj.GroupStrategy{pgbj.Geometric, pgbj.Greedy} {
				p, err := costPGBJ(ds, opts, st, gs)
				if err != nil {
					return nil, err
				}
				plans = append(plans, p)
			}
			plans = append(plans, costPBJ(ds, opts, st))
		}
	}
	sort.SliceStable(plans, func(i, j int) bool {
		if plans[i].Score != plans[j].Score {
			return plans[i].Score < plans[j].Score
		}
		return plans[i].Config() < plans[j].Config()
	})
	return plans, nil
}

// Best returns the ranked list's pick: the first plan, skipping
// approximate ones unless allowApprox. It returns nil only for an empty
// list.
func Best(plans []Plan, allowApprox bool) *Plan {
	for i := range plans {
		if allowApprox || !plans[i].Approximate {
			return &plans[i]
		}
	}
	return nil
}

// pivotGrid returns the NumPivots sweep: the library default 2·√|R|
// bracketed by half and double, clamped so pivots stay selectable from
// the R sample and at least the node count. Options.NumPivots pins the
// grid to a single value.
func pivotGrid(ds *DataStats, opts Options) []int {
	maxP := len(ds.RSample) / 2
	if maxP < 1 {
		maxP = 1
	}
	clamp := func(p int) int {
		if p < opts.Nodes {
			p = opts.Nodes
		}
		if p > maxP {
			p = maxP
		}
		if p > ds.RSize {
			p = ds.RSize
		}
		if p < 1 {
			p = 1
		}
		return p
	}
	if opts.NumPivots > 0 {
		return []int{clamp(opts.NumPivots)}
	}
	base := int(2 * math.Sqrt(float64(ds.RSize)))
	grid := []int{clamp(base / 2), clamp(base), clamp(2 * base)}
	sort.Ints(grid)
	out := grid[:0]
	for i, p := range grid {
		if i == 0 || p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// Explain renders the measured statistics and the ranked plans as the
// aligned text table the EXPLAIN tooling prints.
func Explain(ds *DataStats, plans []Plan) string {
	head := fmt.Sprintf(
		"|R|=%d |S|=%d dims=%d (intrinsic ≈ %.1f) cluster-skew=%.2f sample=%d/%d\n\n",
		ds.RSize, ds.SSize, ds.Dims, ds.IntrinsicDim, ds.ClusterSkew,
		len(ds.RSample), len(ds.SSample))
	t := &stats.Table{Header: []string{
		"#", "plan", "repl", "shuffle", "dist comps", "max/reducer", "spill", "score", "why",
	}}
	for i, p := range plans {
		repl := "-"
		if ds.SSize > 0 && p.Predicted.ReplicasS > 0 {
			repl = fmt.Sprintf("%.2f", float64(p.Predicted.ReplicasS)/float64(ds.SSize))
		}
		spill := "-"
		if p.Predicted.SpillBytes > 0 {
			spill = stats.FormatBytes(p.Predicted.SpillBytes)
		}
		t.AddRow(i+1, p.Config(), repl, stats.FormatBytes(p.Predicted.ShuffleBytes),
			compact(p.Predicted.DistComps), compact(p.Predicted.MaxReducerComps),
			spill, fmt.Sprintf("%.3g", p.Score), p.Why)
	}
	return head + t.String()
}
