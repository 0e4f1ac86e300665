package vindex

import (
	"math"
	"math/rand"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/vector"
)

// StartKNN computes every |q,p_j| once and lets the starting bound read
// the gaps; q's own gap is the assignment's distance. That is only the
// same walk if the assignment's distance equals Metric.Dist bit for bit
// — the L2 scan takes the root of the same squared sum — so this holds
// every gap to Metric.Dist, on queries that sit on pivots, on data
// points and between them, and holds the charge to |P| for the
// assignment, one per cell with a kNN list for the bound and |P|−1 for
// the gaps.
func TestStartKNNGapsAreMetricDist(t *testing.T) {
	grid := make([]codec.Object, 600)
	rng := rand.New(rand.NewSource(5))
	for i := range grid {
		grid[i] = codec.Object{ID: int64(i), Point: vector.Point{float64(rng.Intn(6)), float64(rng.Intn(6)), float64(rng.Intn(3))}}
	}
	for name, objs := range map[string][]codec.Object{
		"forest-10d":   dataset.Forest(800, 6),
		"zipf-2d":      dataset.Zipf(800, 2, 12, 100, 7),
		"integer-grid": grid,
	} {
		for _, m := range []vector.Metric{vector.L2, vector.L1, vector.LInf} {
			ix, err := Build(objs, Options{Metric: m, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			pivots := ix.Pivots()
			withList := 0
			for j := range ix.sum.S {
				if len(ix.sum.S[j].KDists) > 0 {
					withList++
				}
			}
			queries := append([]vector.Point(nil), pivots...)
			for i := 0; i < 40; i++ {
				q := objs[rng.Intn(len(objs))].Point.Clone()
				queries = append(queries, q.Clone())
				q[0] += rng.NormFloat64()
				queries = append(queries, q)
			}
			for qi, q := range queries {
				var charged int64
				_, _, gaps := ix.StartKNN(q, 5, &charged)
				for j, p := range pivots {
					if want := m.Dist(q, p); math.Float64bits(gaps[j]) != math.Float64bits(want) {
						t.Fatalf("%s %v query %d: gap %d = %v, Metric.Dist = %v", name, m, qi, j, gaps[j], want)
					}
				}
				if want := int64(2*len(pivots) - 1 + withList); charged != want {
					t.Fatalf("%s %v query %d: StartKNN charged %d, want |P| + %d + |P|−1 = %d", name, m, qi, charged, withList, want)
				}
			}
		}
	}
}
