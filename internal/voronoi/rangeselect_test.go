package voronoi

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"knnjoin/internal/codec"
	"knnjoin/internal/vector"
)

// RangeSelect is Definition 3 over partitioned data as the paper states
// it, kept as the test oracle of the block-based range walk (vindex's
// RangeWindows and RangeStep; see oracle_test.go): every object within
// distance theta of q, pruned by Corollary 1 and Theorem 2, visiting the
// cells in index order. partitions are the cells Partition produces, each
// sorted with SortByPivotDist, and sum their summary. distCount, when
// non-nil, accrues the distance computations: q's assignment, the pivot
// of every non-empty cell other than q's own, and every row verified.
func (p *Partitioner) RangeSelect(partitions [][]codec.Tagged, sum *Summary, q vector.Point, theta float64, distCount *int64) []codec.Tagged {
	count := func(n int64) {
		if distCount != nil {
			*distCount += n
		}
	}
	qPart, qDist := p.Assign(q, distCount)
	var out []codec.Tagged
	for j, part := range partitions {
		if len(part) == 0 {
			continue
		}
		qToPj := qDist
		if j != qPart {
			qToPj = p.Metric.Dist(q, p.Pivots[j])
			count(1)
			if HyperplaneDist(qToPj, qDist, p.PivotDist(qPart, j), p.Metric) > theta {
				continue
			}
		}
		lo, hi, ok := Theorem2Window(sum.S[j], qToPj, theta)
		if !ok {
			continue
		}
		from, to := windowIndices(part, lo, hi)
		for x := from; x < to; x++ {
			count(1)
			if p.Metric.Dist(q, part[x].Point) <= theta {
				out = append(out, part[x])
			}
		}
	}
	return out
}

// windowIndices returns the half-open index range [from, to) of objs —
// sorted by SortByPivotDist — whose PivotDist lies in [lo, hi].
func windowIndices(objs []codec.Tagged, lo, hi float64) (from, to int) {
	from = sort.Search(len(objs), func(i int) bool { return objs[i].PivotDist >= lo })
	to = sort.Search(len(objs), func(i int) bool { return objs[i].PivotDist > hi })
	return from, to
}

// rangeFixture partitions a random S with a summary, sorted for windows.
func rangeFixture(seed int64, n, nPivots, dim int, metric vector.Metric) (*Partitioner, [][]codec.Tagged, *Summary, []codec.Object) {
	rng := rand.New(rand.NewSource(seed))
	objs := randObjects(rng, n, dim, 100)
	pivots := randPivots(rng, nPivots, dim, 100)
	pp := NewPartitioner(pivots, metric)
	parts := pp.Partition(objs, codec.FromS, nil)
	b := NewSummaryBuilder(nPivots, 2)
	for _, g := range parts {
		for _, o := range g {
			b.Add(o)
		}
		SortByPivotDist(g)
	}
	return pp, parts, b.Finalize(), objs
}

func idsWithin(objs []codec.Object, q vector.Point, theta float64, m vector.Metric) []int64 {
	var out []int64
	for _, o := range objs {
		if m.Dist(q, o.Point) <= theta {
			out = append(out, o.ID)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func TestRangeSelectMatchesLinearScan(t *testing.T) {
	pp, parts, sum, objs := rangeFixture(1, 500, 8, 3, vector.L2)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		q := randObjects(rng, 1, 3, 100)[0].Point
		theta := rng.Float64() * 50
		got := pp.RangeSelect(parts, sum, q, theta, nil)
		gotIDs := make([]int64, len(got))
		for i, g := range got {
			gotIDs[i] = g.ID
		}
		sort.Slice(gotIDs, func(a, b int) bool { return gotIDs[a] < gotIDs[b] })
		want := idsWithin(objs, q, theta, vector.L2)
		if len(gotIDs) != len(want) {
			t.Fatalf("trial %d θ=%v: %d results, want %d", trial, theta, len(gotIDs), len(want))
		}
		for i := range want {
			if gotIDs[i] != want[i] {
				t.Fatalf("trial %d: result %d = %d, want %d", trial, i, gotIDs[i], want[i])
			}
		}
	}
}

func TestRangeSelectAlternateMetrics(t *testing.T) {
	for _, m := range []vector.Metric{vector.L1, vector.LInf} {
		pp, parts, sum, objs := rangeFixture(3, 300, 6, 2, m)
		rng := rand.New(rand.NewSource(4))
		for trial := 0; trial < 40; trial++ {
			q := randObjects(rng, 1, 2, 100)[0].Point
			theta := rng.Float64() * 60
			got := pp.RangeSelect(parts, sum, q, theta, nil)
			if len(got) != len(idsWithin(objs, q, theta, m)) {
				t.Fatalf("%v trial %d: wrong result size", m, trial)
			}
		}
	}
}

func TestRangeSelectZeroRadius(t *testing.T) {
	pp, parts, sum, objs := rangeFixture(5, 200, 5, 2, vector.L2)
	// θ=0 finds exactly the objects at the query point.
	q := objs[17].Point
	got := pp.RangeSelect(parts, sum, q, 0, nil)
	found := false
	for _, g := range got {
		if g.ID == 17 {
			found = true
		}
		if vector.Dist(q, g.Point) != 0 {
			t.Fatalf("θ=0 returned object at distance %v", vector.Dist(q, g.Point))
		}
	}
	if !found {
		t.Fatal("θ=0 missed the object at the query point")
	}
}

func TestRangeSelectCountsDistances(t *testing.T) {
	pp, parts, sum, _ := rangeFixture(6, 400, 8, 3, vector.L2)
	var n int64
	pp.RangeSelect(parts, sum, vector.Point{50, 50, 50}, 20, &n)
	if n <= 0 {
		t.Fatal("no distances counted")
	}
	// Pruning should beat a full scan plus pivot probes.
	if n >= 400+8 {
		t.Fatalf("RangeSelect computed %d distances — no pruning over linear scan", n)
	}
}

// Property: RangeSelect equals linear scan for arbitrary shapes, radii
// and metrics.
func TestRangeSelectQuick(t *testing.T) {
	f := func(seed int64, nRaw, pRaw, thetaRaw uint8, metricRaw bool) bool {
		n := int(nRaw)%150 + 1
		np := int(pRaw)%8 + 1
		theta := float64(thetaRaw)
		m := vector.L2
		if metricRaw {
			m = vector.L1
		}
		pp, parts, sum, objs := rangeFixture(seed, n, np, 2, m)
		rng := rand.New(rand.NewSource(seed + 1))
		q := randObjects(rng, 1, 2, 100)[0].Point
		got := pp.RangeSelect(parts, sum, q, theta, nil)
		return len(got) == len(idsWithin(objs, q, theta, m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
