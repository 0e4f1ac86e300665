package planner_test

import (
	"math"
	"testing"

	"knnjoin"
	"knnjoin/internal/dataset"
	"knnjoin/internal/planner"
)

// TestPredictionsMatchMeasuredReplication checks the sampled Theorem-7
// estimate against the real pipeline: across a pivot sweep, predicted
// S-replication must land within tolerance of the measured actual and
// preserve its ordering. This is the falsifiability contract: the model
// is code, the pipeline is the experiment.
func TestPredictionsMatchMeasuredReplication(t *testing.T) {
	objs := dataset.Uniform(4000, 4, 100, 1)
	opts := planner.Options{K: 5, Nodes: 16, Seed: 1}
	ds, err := planner.Measure(objs, objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		pivots              int
		predicted, measured int64
	}
	var pts []point
	for _, p := range []int{16, 64, 256} {
		pinned := opts
		pinned.NumPivots = p
		plans, err := planner.Plans(ds, pinned)
		if err != nil {
			t.Fatal(err)
		}
		var pred int64 = -1
		for _, pl := range plans {
			if pl.Algo == "pgbj" && pl.PivotStrategy.String() == "random" && pl.GroupStrategy.String() == "geometric" {
				pred = pl.Predicted.ReplicasS
				break
			}
		}
		if pred < 0 {
			t.Fatalf("no pgbj random/geometric candidate at pivots=%d", p)
		}
		_, st, err := knnjoin.Join(objs, objs, knnjoin.Options{
			K: 5, Algorithm: knnjoin.PGBJ, Nodes: 16, NumPivots: p, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, point{p, pred, st.ReplicasS})
		ratio := float64(pred) / float64(st.ReplicasS)
		if ratio < 0.75 || ratio > 1.35 {
			t.Errorf("pivots=%d: predicted replicas %d vs measured %d (ratio %.2f outside [0.75, 1.35])",
				p, pred, st.ReplicasS, ratio)
		}
	}
	for i := 1; i < len(pts); i++ {
		predDown := pts[i].predicted <= pts[i-1].predicted
		measDown := pts[i].measured <= pts[i-1].measured
		if predDown != measDown {
			t.Errorf("pivots %d → %d: predicted direction (down=%v) disagrees with measured (down=%v)",
				pts[i-1].pivots, pts[i].pivots, predDown, measDown)
		}
	}
}

// TestRankingAgreesWithMeasuredCost sweeps seeds and checks that the
// ranking's strong preferences are real: whenever the model scores one
// exact algorithm at least 1.8× cheaper than another, the measured
// deterministic cost (each run's measured work re-scored by the model's
// own score, MeasuredScore) must not order them the other way by more
// than 25%. Wall clocks stay out of it so the test cannot flake.
func TestRankingAgreesWithMeasuredCost(t *testing.T) {
	algos := []knnjoin.Algorithm{knnjoin.PGBJ, knnjoin.HBRJ, knnjoin.Broadcast, knnjoin.Theta}
	for _, seed := range []int64{1, 2, 3} {
		objs := dataset.Gaussian(1500, 4, 6, 0, 100, seed)
		opts := planner.Options{K: 8, Nodes: 4, Seed: seed}
		ds, err := planner.Measure(objs, objs, opts)
		if err != nil {
			t.Fatal(err)
		}
		plans, err := planner.Plans(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		bestScore := map[string]float64{}
		for _, p := range plans {
			if _, ok := bestScore[p.Algo]; !ok {
				bestScore[p.Algo] = p.Score
			}
		}
		measured := map[string]float64{}
		for _, a := range algos {
			_, st, err := knnjoin.Join(objs, objs, knnjoin.Options{
				K: 8, Algorithm: a, Nodes: 4, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			measured[a.String()] = planner.MeasuredScore(a.String(), st, ds, opts)
		}
		for i, a := range algos {
			for _, b := range algos[i+1:] {
				sa, sb := bestScore[a.String()], bestScore[b.String()]
				ma, mb := measured[a.String()], measured[b.String()]
				if sa < sb/1.8 && ma > mb*1.25 {
					t.Errorf("seed %d: model prefers %s (%.3g) over %s (%.3g) but measured cost says %0.f vs %0.f",
						seed, a, sa, b, sb, ma, mb)
				}
				if sb < sa/1.8 && mb > ma*1.25 {
					t.Errorf("seed %d: model prefers %s (%.3g) over %s (%.3g) but measured cost says %0.f vs %0.f",
						seed, b, sb, a, sa, mb, ma)
				}
			}
		}
	}
}

// TestPickWithinGateOfBestFixedPlan is the planner's regression gate. On
// four workload shapes (uniform, Gaussian clusters, Zipf-skewed density
// and a lopsided |R| ≪ |S| join) it runs each of the seven fixed plans
// once and the planner's pick (Algorithm Auto, which executes
// planner.Best) once, and re-scores every run's measured work with the
// ranking's own score. The pick must score within pickGate of the best
// fixed plan. Every input is a count, exact per seed, so the gate reads
// no clock: a pick with half again the work of the best plan fails on
// any host.
func TestPickWithinGateOfBestFixedPlan(t *testing.T) {
	const n, k, nodes, pickGate = 800, 10, 4, 1.5
	shapes := []struct {
		name string
		r, s []knnjoin.Object
	}{
		{"uniform", dataset.Uniform(n, 4, 100, 1), nil},
		{"gaussian", dataset.Gaussian(n, 4, 8, 0, 100, 1), nil},
		{"zipf", dataset.Zipf(n, 2, 64, 100, 1), nil},
		{"lopsided", dataset.Uniform(n/16, 4, 100, 1), dataset.Uniform(n, 4, 100, 2)},
	}
	fixed := []knnjoin.Options{
		{Algorithm: knnjoin.PGBJ, GroupStrategy: knnjoin.GeometricGrouping},
		{Algorithm: knnjoin.PGBJ, GroupStrategy: knnjoin.GreedyGrouping},
		{Algorithm: knnjoin.PBJ},
		{Algorithm: knnjoin.HBRJ},
		{Algorithm: knnjoin.Broadcast},
		{Algorithm: knnjoin.Theta},
		{Algorithm: knnjoin.BruteForce},
	}
	for _, sh := range shapes {
		s := sh.s
		if s == nil {
			s = sh.r
		}
		popts := planner.Options{K: k, Nodes: nodes, Seed: 1}
		ds, err := planner.Measure(sh.r, s, popts)
		if err != nil {
			t.Fatal(err)
		}
		run := func(opts knnjoin.Options) *knnjoin.Stats {
			opts.K, opts.Nodes, opts.Seed = k, nodes, 1
			_, st, err := knnjoin.Join(sh.r, s, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", sh.name, opts.Algorithm, err)
			}
			return st
		}
		best, bestName := math.Inf(1), ""
		for _, opts := range fixed {
			name := opts.Algorithm.String()
			if opts.Algorithm == knnjoin.PGBJ {
				name += "/" + opts.GroupStrategy.String()
			}
			if sc := planner.MeasuredScore(opts.Algorithm.String(), run(opts), ds, popts); sc < best {
				best, bestName = sc, name
			}
		}
		st := run(knnjoin.Options{Algorithm: knnjoin.Auto})
		if st.Plan == nil {
			t.Fatalf("%s: Auto ran without a plan", sh.name)
		}
		pick := planner.MeasuredScore(st.Plan.Algorithm, st, ds, popts)
		t.Logf("%s: pick %s scores %.3g, %.2f× the best fixed plan %s (%.3g)",
			sh.name, st.Plan.Algorithm, pick, pick/best, bestName, best)
		if pick > best*pickGate {
			t.Errorf("%s: the planner's pick (%s) scores %.3g on its measured work, %.2f× the best fixed plan %s (%.3g); the gate is %.1f×",
				sh.name, st.Plan.Algorithm, pick, pick/best, bestName, best, pickGate)
		}
	}
}
