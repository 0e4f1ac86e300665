package voronoi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/pivot"
	"knnjoin/internal/vector"
)

// gapCase is one seeded input of the gap pre-check oracle: the objects
// (joined with themselves), the pivots and k.
type gapCase struct {
	name   string
	objs   []codec.Object
	pivots []vector.Point
	k      int
}

// gapCorpus is the oracle's inputs: the join generators, duplicate
// piles and duplicate pivots, every kind of the assignment's tie and
// magnitude corpus, a collinear 1-d input on which Algorithm 1's bound
// is tight to the last ulp, and a 1-d case on which the gap test is
// tight to the last ulp.
func gapCorpus(t *testing.T) []gapCase {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	sample := func(name string, objs []codec.Object, nPivots, k int, seed int64) gapCase {
		pivots, err := pivot.Select(pivot.Random, objs, nPivots, pivot.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return gapCase{name, objs, pivots, k}
	}
	piles := make([]codec.Object, 240)
	base := dataset.Uniform(12, 3, 100, 42)
	for i := range piles {
		piles[i] = codec.Object{ID: int64(i), Point: base[rng.Intn(len(base))].Point.Clone()}
	}
	dupPivots := dataset.Uniform(240, 3, 100, 43)
	cases := []gapCase{
		sample("uniform", dataset.Uniform(300, 3, 100, 44), 24, 5, 1),
		sample("gaussian", dataset.Gaussian(300, 4, 5, 0.05, 100, 45), 24, 5, 2),
		sample("zipf", dataset.Zipf(300, 2, 16, 100, 46), 24, 5, 3),
		sample("duplicate piles", piles, 24, 5, 4),
		{"duplicate pivots", dupPivots, []vector.Point{
			dupPivots[0].Point, dupPivots[1].Point, dupPivots[0].Point, dupPivots[2].Point,
			dupPivots[1].Point, dupPivots[3].Point, dupPivots[0].Point, dupPivots[4].Point,
		}, 5},
		sample("collinear 1-d", dataset.Uniform(120, 1, 100, -1089485791055524437), 21, 7, -1089485791055524437),
		// |0.3,0.1| + U = 0.19999999999999998 + 0.7 rounds below the gap
		// 0.9 while |0.3,1.0| − θ = U exactly: without its slack the
		// Theorem-2 test prunes the cell Decide scans at θ = 0.
		{"rounding edge", []codec.Object{{ID: 0, Point: vector.Point{0.3}}, {ID: 1, Point: vector.Point{1.7}}},
			[]vector.Point{{0.1}, {1.0}}, 1},
	}
	for kind := uint8(0); kind < numKinds; kind++ {
		name, pivots, pts := assignCorpus(kind, int64(kind)+47, 21, 3)
		objs := make([]codec.Object, len(pts))
		for i, p := range pts {
			objs[i] = codec.Object{ID: int64(i), Point: p}
		}
		cases = append(cases, gapCase{"corpus " + name, objs, pivots, 3})
	}
	return cases
}

// kthDist is x's true k-th neighbour distance among objs, or +Inf.
func kthDist(m vector.Metric, x vector.Point, objs []codec.Object, k int) float64 {
	ds := make([]float64, len(objs))
	for i, o := range objs {
		ds[i] = m.Dist(x, o.Point)
	}
	if k > len(ds) {
		return math.Inf(1)
	}
	return kthSmallest(ds, k)
}

// The gap pre-check is a one-sided shortcut of Decide: for every row,
// cell, metric, θ and ablation, GapPrunes(j) implies that Decide on the
// computed |x,p_j| does not scan, and a gap past GapLimit implies that
// Decide prunes. θ runs over 0, the row's true k-th neighbour distance
// (the walk's final bound), its partition's Algorithm-1 bound (the
// starting one) and +Inf.
func TestGapPrecheckImpliesDecide(t *testing.T) {
	for _, c := range gapCorpus(t) {
		for _, m := range allMetrics {
			pp := NewPartitioner(c.pivots, m)
			sum, rParts, _ := buildSummary(t, pp, c.objs, c.objs, c.k)
			var pairs, gapPruned, decidePruned int
			for own, part := range rParts {
				for _, x := range part {
					thetas := []float64{0, kthDist(m, x.Point, c.objs, c.k), sum.BoundKNN(own, pp), math.Inf(1)}
					for ti, theta := range thetas {
						for abl := 0; abl < 4; abl++ {
							w := NewWalk(pp, sum)
							w.NoHyperplane, w.NoWindow = abl&1 != 0, abl&2 != 0
							w = w.Start(own, x.PivotDist, theta)
							limit := w.GapLimit()
							for j := range c.pivots {
								_, _, d := w.Decide(j, m.Dist(x.Point, c.pivots[j]))
								gp, past := w.GapPrunes(j), PastGapLimit(pp.PivotDist(own, j), limit)
								where := func() string {
									return fmt.Sprintf("%s %v row %d cell %d (own %d) θ#%d=%v noHyper=%v noWindow=%v",
										c.name, m, x.ID, j, own, ti, theta, w.NoHyperplane, w.NoWindow)
								}
								if gp && d == Scan {
									t.Fatalf("%s: GapPrunes, but Decide scans", where())
								}
								if past && d == Scan || past && !w.Empty(j) && d != Prune {
									t.Fatalf("%s: gap %v past GapLimit %v, but Decide = %v", where(), pp.PivotDist(own, j), limit, d)
								}
								if past && (j == own || w.NoHyperplane) {
									t.Fatalf("%s: own cell or Corollary 1 off, yet past GapLimit", where())
								}
								if ti == 1 && abl == 0 && !w.Empty(j) {
									pairs++
									if gp {
										gapPruned++
									}
									if d == Prune {
										decidePruned++
									}
								}
							}
						}
					}
				}
			}
			// The pre-check must not be vacuous where cells are apart.
			if c.name == "uniform" || c.name == "gaussian" || c.name == "zipf" {
				if gapPruned*2 < decidePruned {
					t.Errorf("%s %v: at the final θ the gap decides %d of the %d pruned (row, cell) pairs of %d",
						c.name, m, gapPruned, decidePruned, pairs)
				}
			}
		}
	}
}

// The bounds hold at the ends of the double range too: a gap that
// overflowed to +Inf is never past any limit, and neither is a NaN.
func TestPastGapLimitDeclinesOverflow(t *testing.T) {
	for _, gap := range []float64{math.Inf(1), math.NaN()} {
		if PastGapLimit(gap, 1) {
			t.Errorf("PastGapLimit(%v, 1) = true", gap)
		}
	}
	if !PastGapLimit(math.MaxFloat64, 1) || PastGapLimit(1, 1) {
		t.Error("PastGapLimit is not a strict comparison on finite gaps")
	}
	walks := []Walk{{OwnDist: 1, Theta: 2}, {OwnDist: 0, Theta: 5}}
	if got, want := BatchGapLimit(walks), walks[1].GapLimit(); got != want {
		t.Errorf("BatchGapLimit = %v, want the larger GapLimit %v", got, want)
	}
	if walks[0].NoHyperplane = true; !math.IsInf(BatchGapLimit(walks), 1) {
		t.Error("a walk without Corollary 1 must lift the batch's limit to +Inf")
	}
}
