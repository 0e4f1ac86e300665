package voronoi_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/vector"
	"knnjoin/internal/vindex"
	"knnjoin/internal/voronoi"
)

// The query index's block-based range walk (vindex.RangeWithStats:
// RangeWindows, then RangeStep per window) returns exactly what
// RangeSelect, the paper's row-form range selection kept as the oracle,
// returns over the same cells — every object and coordinate bit — and
// charges the same distance computations, under every metric.
func TestRangeSelectOracleMatchesIndex(t *testing.T) {
	objs := dataset.Gaussian(1200, 3, 6, 0.08, 100, 31)
	for _, m := range []vector.Metric{vector.L2, vector.L1, vector.LInf} {
		ix, err := vindex.Build(objs, vindex.Options{Metric: m, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		pp := voronoi.NewPartitioner(ix.Pivots(), m)
		parts := pp.Partition(objs, codec.FromS, nil)
		b := voronoi.NewSummaryBuilder(pp.NumPartitions(), 1)
		for _, g := range parts {
			for _, o := range g {
				b.Add(o)
			}
			voronoi.SortByPivotDist(g)
		}
		sum := b.Finalize()
		rng := rand.New(rand.NewSource(32))
		for trial := 0; trial < 60; trial++ {
			q := objs[rng.Intn(len(objs))].Point.Clone()
			q[0] += rng.NormFloat64() * 3
			radius := rng.Float64() * 15
			var n int64
			want := pp.RangeSelect(parts, sum, q, radius, &n)
			sort.Slice(want, func(a, b int) bool { return want[a].ID < want[b].ID })
			got, st := ix.RangeWithStats(q, radius)
			if st.DistComputations != n || len(got) != len(want) {
				t.Fatalf("%v trial %d: %d objects for %d distances, oracle %d for %d", m, trial, len(got), st.DistComputations, len(want), n)
			}
			for i := range want {
				if got[i].ID != want[i].ID {
					t.Fatalf("%v trial %d: object %d is %d, oracle %d", m, trial, i, got[i].ID, want[i].ID)
				}
				for d := range want[i].Point {
					if math.Float64bits(got[i].Point[d]) != math.Float64bits(want[i].Point[d]) {
						t.Fatalf("%v trial %d: object %d coordinate %d differs", m, trial, got[i].ID, d)
					}
				}
			}
		}
	}
}
