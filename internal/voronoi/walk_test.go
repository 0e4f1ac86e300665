package voronoi

import (
	"math"
	"math/rand"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/vector"
)

func TestVisitOrderTiesByIndex(t *testing.T) {
	order := make([]int, 6)
	VisitOrder(order, []float64{3, 1, 2, 1, 0, 2})
	want := []int{4, 1, 3, 2, 5, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	VisitOrder(order, make([]float64, 6)) // all equal: index order
	for i, j := range order {
		if i != j {
			t.Fatalf("equal keys: order = %v, want index order", order)
		}
	}
}

// walkFixture is a small partitioned S with its summary.
func walkFixture(t *testing.T) (*Partitioner, *Summary, [][]codec.Tagged) {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	pp := NewPartitioner(randPivots(rng, 6, 2, 100), vector.L2)
	parts := pp.Partition(randObjects(rng, 300, 2, 100), codec.FromS, nil)
	b := NewSummaryBuilder(6, 3)
	for _, g := range parts {
		for _, o := range g {
			b.Add(o)
		}
	}
	return pp, b.Finalize(), parts
}

// Decide is Corollary 1 then Theorem 2, each switchable, and an empty
// cell is skipped before either.
func TestWalkDecide(t *testing.T) {
	pp, sum, _ := walkFixture(t)
	sum.S[5] = SSummary{L: math.Inf(1), U: math.Inf(-1)} // an empty cell
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		q := randObjects(rng, 1, 2, 100)[0].Point
		own, ownDist := pp.Assign(q, nil)
		theta := rng.Float64() * 40
		for _, abl := range []struct{ noHyper, noWindow bool }{{false, false}, {true, false}, {false, true}} {
			w := NewWalk(pp, sum)
			w.NoHyperplane, w.NoWindow = abl.noHyper, abl.noWindow
			w = w.Start(own, ownDist, theta)
			for j := range sum.S {
				dist := pp.Metric.Dist(q, pp.Pivots[j])
				lo, hi, d := w.Decide(j, dist)
				want := Scan
				wlo, whi, ok := Theorem2Window(sum.S[j], dist, theta)
				switch {
				case sum.S[j].Count == 0:
					want = Skip
				case !abl.noHyper && j != own && HyperplaneDist(dist, ownDist, pp.PivotDist(own, j), vector.L2) > theta:
					want = Prune
				case abl.noWindow:
					wlo, whi = math.Inf(-1), math.Inf(1)
				case !ok:
					want = Prune
				}
				if d != want || (d == Scan && (lo != wlo || hi != whi)) {
					t.Fatalf("cell %d %+v: Decide = %v [%v,%v], want %v [%v,%v]", j, abl, d, lo, hi, want, wlo, whi)
				}
			}
		}
	}
}

// Tighten lowers θ to the full heap's k-th best — the square root of the
// squared kernel distance under L2 — and never raises it.
func TestWalkTighten(t *testing.T) {
	pp, sum, _ := walkFixture(t)
	w := NewWalk(pp, sum).Start(0, 0, 10)
	h := nnheap.NewKHeap(2)
	h.Push(nnheap.Candidate{ID: 1, Dist: 16})
	if w.Tighten(h); w.Theta != 10 {
		t.Fatalf("a heap short of k moved θ to %v", w.Theta)
	}
	h.Push(nnheap.Candidate{ID: 2, Dist: 25})
	if w.Tighten(h); w.Theta != 5 {
		t.Fatalf("θ = %v, want √25", w.Theta)
	}
	w.Theta = 4
	if w.Tighten(h); w.Theta != 4 {
		t.Fatalf("Tighten raised θ to %v", w.Theta)
	}
}
