package knnjoin

// One benchmark per table and figure of the paper's evaluation (§6).
// Each benchmark executes the corresponding experiment end to end at a
// reduced scale so `go test -bench=.` finishes in minutes; use
// `cmd/knnbench` for the full-scale reproduction and the "Evaluation
// (§6)" section of PAPER.md for what the paper measured. The benchmarks
// report the experiment's headline metrics (selectivity, replication,
// shuffle bytes) as custom units so regressions in pruning quality
// surface as benchmark regressions, not just time.

import (
	"io"
	"testing"

	"knnjoin/internal/dataset"
	"knnjoin/internal/experiments"
	"knnjoin/internal/pivot"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

// benchCfg is the reduced benchmark scale: Forest×10 = 8000 objects.
func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.04, Seed: 1, Nodes: 8, K: 10}
}

func BenchmarkTable2PartitionStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchCfg())
		if _, err := r.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3GroupStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchCfg())
		if _, err := r.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6TuningPhases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchCfg())
		if _, _, err := r.Fig6and7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7SelectivityReplication(b *testing.B) {
	// Figure 7's metrics come from the same sweep as Figure 6; this bench
	// isolates one representative configuration and reports its
	// selectivity and replication as custom metrics.
	r := experiments.NewRunner(benchCfg())
	objs := r.ForestX(10)
	b.ResetTimer()
	var sel, repl float64
	for i := 0; i < b.N; i++ {
		_, st, err := SelfJoin(objs, Options{K: 10, Nodes: 8, NumPivots: r.DefaultPivots(), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		sel, repl = st.Selectivity()*1000, st.AvgReplication()
	}
	b.ReportMetric(sel, "selectivity-permille")
	b.ReportMetric(repl, "avg-replication")
}

func BenchmarkFig8EffectOfK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchCfg())
		if _, err := r.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9EffectOfKOSM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchCfg())
		if _, err := r.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Dimensionality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchCfg())
		if _, err := r.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Scalability(b *testing.B) {
	cfg := benchCfg()
	cfg.Scale = 0.02 // the ×25 point dominates otherwise
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(cfg)
		if _, err := r.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchCfg())
		if _, err := r.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchCfg())
		if _, err := r.Ablation(); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-algorithm joins at a fixed workload, for side-by-side comparison in
// -bench output (the paper's headline: PGBJ < PBJ < H-BRJ).
func benchmarkAlgorithm(b *testing.B, alg Algorithm) {
	objs := dataset.Forest(6000, 1)
	b.ResetTimer()
	var sel float64
	for i := 0; i < b.N; i++ {
		_, st, err := SelfJoin(objs, Options{K: 10, Algorithm: alg, Nodes: 9, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		sel = st.Selectivity() * 1000
	}
	b.ReportMetric(sel, "selectivity-permille")
}

func BenchmarkJoinPGBJ(b *testing.B)      { benchmarkAlgorithm(b, PGBJ) }
func BenchmarkJoinPBJ(b *testing.B)       { benchmarkAlgorithm(b, PBJ) }
func BenchmarkJoinHBRJ(b *testing.B)      { benchmarkAlgorithm(b, HBRJ) }
func BenchmarkJoinBroadcast(b *testing.B) { benchmarkAlgorithm(b, Broadcast) }
func BenchmarkJoinZKNN(b *testing.B)      { benchmarkAlgorithm(b, ZKNN) }

func BenchmarkZKNNRecallCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchCfg())
		if _, err := r.ZKNN(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineFrameworks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchCfg())
		if _, err := r.Baselines(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKClosestPairs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchCfg())
		if _, err := r.TopKPairs(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReducerSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchCfg())
		if _, err := r.Skew(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeJoinSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchCfg())
		if _, err := r.RangeJoinExp(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLOFOutlierScoring(b *testing.B) {
	objs := dataset.Forest(6000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := LOF(objs, 10, Options{Nodes: 9, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Nearest-pivot assignment ------------------------------------------
//
// The loop under job 1, vindex.Build and the query walk, at the three
// shapes the repository benchmark runs: the osm self-join (632 pivots,
// 2-d Zipf city clusters), Forest R ∪ S (244 pivots of R, 10-d) and
// the Forest ×10 index build (774 pivots of S). evaluated/obj is the
// pruned scan's comparison count beside the |P| the paper's algorithm
// is charged. No thresholds: the numbers are for reading.

// assignShape is one BenchmarkAssign case: pivots drawn from one set,
// objects to assign from another.
type assignShape struct {
	name    string
	pivots  int
	from    []Object
	objects []Object
}

// assignShapes returns the three shapes; the objects are a stride of
// the full set so the benchmark stays small.
func assignShapes() []assignShape {
	stride := func(objs []Object, n int) []Object {
		out := make([]Object, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, objs[i*len(objs)/n])
		}
		return out
	}
	osm := dataset.OSM(100000, 1)
	r := dataset.Forest(15000, 2)
	s := dataset.Expand(dataset.Forest(15000, 1), 10)
	return []assignShape{
		{"osm2d/P=632", 632, osm, stride(osm, 20000)},
		{"forest10d/P=244", 244, r, append(stride(r, 2000), stride(s, 18000)...)},
		{"forest10d/P=774", 774, s, stride(s, 20000)},
	}
}

func BenchmarkAssign(b *testing.B) {
	for _, sh := range assignShapes() {
		pivots, err := pivot.Select(pivot.Random, sh.from, sh.pivots, pivot.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		pp := voronoi.NewPartitioner(pivots, vector.L2)
		b.Run(sh.name, func(b *testing.B) {
			var evaluated, objects int64
			for i := 0; i < b.N; i++ {
				for _, o := range sh.objects {
					_, _, e := pp.AssignEvaluated(o.Point)
					evaluated += int64(e)
				}
				objects += int64(len(sh.objects))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(objects), "ns/object")
			b.ReportMetric(float64(evaluated)/float64(objects), "evaluated/object")
		})
	}
}

// BenchmarkNewPartitioner prices the constructor at the index build's
// pivot count: it runs three times per join, once per worker process
// per job and once per vindex.Load, so the scan's tables must not show
// here (the nearest-pivot lists are built on first use instead).
func BenchmarkNewPartitioner(b *testing.B) {
	s := dataset.Expand(dataset.Forest(15000, 1), 10)
	pivots, err := pivot.Select(pivot.Random, s, 774, pivot.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		voronoi.NewPartitioner(pivots, vector.L2)
	}
}

// Guard: the full experiment suite stays runnable end to end.
func BenchmarkAllExperimentsTiny(b *testing.B) {
	cfg := experiments.Config{Scale: 0.008, Seed: 1, Nodes: 4, K: 5}
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(cfg)
		if err := r.All(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
