package voronoi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"knnjoin/internal/codec"
	"knnjoin/internal/vector"
)

func randObjects(rng *rand.Rand, n, dim int, scale float64) []codec.Object {
	out := make([]codec.Object, n)
	for i := range out {
		p := make(vector.Point, dim)
		for d := range p {
			p[d] = rng.Float64() * scale
		}
		out[i] = codec.Object{ID: int64(i), Point: p}
	}
	return out
}

func randPivots(rng *rand.Rand, n, dim int, scale float64) []vector.Point {
	out := make([]vector.Point, n)
	for i := range out {
		p := make(vector.Point, dim)
		for d := range p {
			p[d] = rng.Float64() * scale
		}
		out[i] = p
	}
	return out
}

// fullScanAssign is the assignment loop the pruned scan replaced, kept
// verbatim as the oracle: every pivot, Metric.Dist (square root
// included), first strict minimum wins. assign_test.go holds Assign to
// its pivot index, its distance bits and its charged count.
func fullScanAssign(p *Partitioner, pt vector.Point, distCount *int64) (int, float64) {
	best, bestD := 0, p.Metric.Dist(pt, p.Pivots[0])
	for i := 1; i < len(p.Pivots); i++ {
		if d := p.Metric.Dist(pt, p.Pivots[i]); d < bestD {
			best, bestD = i, d
		}
	}
	if distCount != nil {
		*distCount += int64(len(p.Pivots))
	}
	return best, bestD
}

func TestAssignIsNearestPivot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pivots := randPivots(rng, 12, 3, 100)
	pp := NewPartitioner(pivots, vector.L2)
	for i := 0; i < 300; i++ {
		pt := randObjects(rng, 1, 3, 100)[0].Point
		got, gotD := pp.Assign(pt, nil)
		best, bestD := -1, math.Inf(1)
		for j, pv := range pivots {
			if d := vector.Dist(pt, pv); d < bestD {
				best, bestD = j, d
			}
		}
		if got != best || math.Abs(gotD-bestD) > 1e-12 {
			t.Fatalf("Assign = (%d,%v), want (%d,%v)", got, gotD, best, bestD)
		}
	}
}

func TestAssignTieBreaksLow(t *testing.T) {
	// Two identical pivots: ties must go to the lower index.
	pv := vector.Point{1, 1}
	pp := NewPartitioner([]vector.Point{pv.Clone(), pv.Clone()}, vector.L2)
	got, _ := pp.Assign(vector.Point{5, 5}, nil)
	if got != 0 {
		t.Fatalf("tie assigned to %d, want 0", got)
	}
}

func TestAssignCountsDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pp := NewPartitioner(randPivots(rng, 7, 2, 10), vector.L2)
	var n int64
	pp.Assign(vector.Point{1, 2}, &n)
	if n != 7 {
		t.Fatalf("distCount = %d, want 7", n)
	}
}

func TestPivotDistMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pivots := randPivots(rng, 6, 4, 50)
	pp := NewPartitioner(pivots, vector.L2)
	for i := range pivots {
		for j := range pivots {
			want := vector.Dist(pivots[i], pivots[j])
			if got := pp.PivotDist(i, j); math.Abs(got-want) > 1e-12 {
				t.Fatalf("PivotDist(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestNewPartitionerPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPartitioner(nil, vector.L2)
}

func buildSummary(t *testing.T, pp *Partitioner, rObjs, sObjs []codec.Object, k int) (*Summary, [][]codec.Tagged, [][]codec.Tagged) {
	t.Helper()
	rParts := pp.Partition(rObjs, codec.FromR, nil)
	sParts := pp.Partition(sObjs, codec.FromS, nil)
	b := NewSummaryBuilder(pp.NumPartitions(), k)
	for _, g := range rParts {
		for _, o := range g {
			b.Add(o)
		}
	}
	for _, g := range sParts {
		for _, o := range g {
			b.Add(o)
		}
	}
	return b.Finalize(), rParts, sParts
}

func TestSummaryTables(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pivots := randPivots(rng, 5, 3, 100)
	pp := NewPartitioner(pivots, vector.L2)
	rObjs := randObjects(rng, 200, 3, 100)
	sObjs := randObjects(rng, 300, 3, 100)
	k := 4
	sum, rParts, sParts := buildSummary(t, pp, rObjs, sObjs, k)

	totalR, totalS := 0, 0
	for i := range pivots {
		totalR += sum.R[i].Count
		totalS += sum.S[i].Count
		if sum.R[i].Count != len(rParts[i]) || sum.S[i].Count != len(sParts[i]) {
			t.Fatalf("partition %d: counts disagree with partition contents", i)
		}
		// L/U must match the true min/max pivot distance.
		if len(rParts[i]) > 0 {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, o := range rParts[i] {
				lo, hi = math.Min(lo, o.PivotDist), math.Max(hi, o.PivotDist)
			}
			if math.Abs(sum.R[i].L-lo) > 1e-12 || math.Abs(sum.R[i].U-hi) > 1e-12 {
				t.Fatalf("partition %d: TR L/U = (%v,%v), want (%v,%v)", i, sum.R[i].L, sum.R[i].U, lo, hi)
			}
		}
		// KDists must be the k smallest pivot distances, ascending.
		if len(sParts[i]) > 0 {
			var ds []float64
			for _, o := range sParts[i] {
				ds = append(ds, o.PivotDist)
			}
			SortByPivotDist(sParts[i])
			want := min(k, len(ds))
			if len(sum.S[i].KDists) != want {
				t.Fatalf("partition %d: %d KDists, want %d", i, len(sum.S[i].KDists), want)
			}
			for j, d := range sum.S[i].KDists {
				if math.Abs(d-sParts[i][j].PivotDist) > 1e-12 {
					t.Fatalf("partition %d KDists[%d] = %v, want %v", i, j, d, sParts[i][j].PivotDist)
				}
				if j > 0 && d < sum.S[i].KDists[j-1] {
					t.Fatalf("partition %d KDists not ascending", i)
				}
			}
		}
	}
	if totalR != len(rObjs) || totalS != len(sObjs) {
		t.Fatalf("objects lost: R %d/%d, S %d/%d", totalR, len(rObjs), totalS, len(sObjs))
	}
}

func TestSummaryBuilderMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pivots := randPivots(rng, 4, 2, 50)
	pp := NewPartitioner(pivots, vector.L2)
	objs := randObjects(rng, 100, 2, 50)
	k := 3

	// One builder sees everything.
	whole := NewSummaryBuilder(4, k)
	var tagged []codec.Tagged
	for _, o := range objs {
		part, d := pp.Assign(o.Point, nil)
		src := codec.FromR
		if o.ID%2 == 0 {
			src = codec.FromS
		}
		tg := codec.Tagged{Object: o, Src: src, Partition: int32(part), PivotDist: d}
		tagged = append(tagged, tg)
		whole.Add(tg)
	}
	// Two builders split the stream, then merge.
	a, b := NewSummaryBuilder(4, k), NewSummaryBuilder(4, k)
	for i, tg := range tagged {
		if i%3 == 0 {
			a.Add(tg)
		} else {
			b.Add(tg)
		}
	}
	a.Merge(b)

	got, want := a.Finalize(), whole.Finalize()
	for i := range want.R {
		if got.R[i] != want.R[i] {
			t.Fatalf("R[%d]: %+v vs %+v", i, got.R[i], want.R[i])
		}
		if got.S[i].Count != want.S[i].Count || got.S[i].L != want.S[i].L || got.S[i].U != want.S[i].U {
			t.Fatalf("S[%d]: %+v vs %+v", i, got.S[i], want.S[i])
		}
		if len(got.S[i].KDists) != len(want.S[i].KDists) {
			t.Fatalf("S[%d]: KDists length %d vs %d", i, len(got.S[i].KDists), len(want.S[i].KDists))
		}
		for j := range want.S[i].KDists {
			if got.S[i].KDists[j] != want.S[i].KDists[j] {
				t.Fatalf("S[%d].KDists[%d]: %v vs %v", i, j, got.S[i].KDists[j], want.S[i].KDists[j])
			}
		}
	}
}

func TestSummaryBuilderPanics(t *testing.T) {
	mustPanic(t, func() { NewSummaryBuilder(0, 1) })
	mustPanic(t, func() { NewSummaryBuilder(1, 0) })
	mustPanic(t, func() {
		NewSummaryBuilder(2, 1).Merge(NewSummaryBuilder(3, 1))
	})
	mustPanic(t, func() {
		NewSummaryBuilder(2, 1).Add(codec.Tagged{Src: 'X'})
	})
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// Theorems 3 & 4: the bounds bracket every true pair distance.
func TestUpperLowerBoundsBracketTrueDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pivots := randPivots(rng, 6, 3, 100)
	pp := NewPartitioner(pivots, vector.L2)
	rObjs := randObjects(rng, 150, 3, 100)
	sObjs := randObjects(rng, 150, 3, 100)
	sum, rParts, sParts := buildSummary(t, pp, rObjs, sObjs, 3)

	for i, rp := range rParts {
		if len(rp) == 0 {
			continue
		}
		for j, spart := range sParts {
			gap := pp.PivotDist(i, j)
			for _, s := range spart {
				ub := UpperBound(sum.R[i].U, gap, s.PivotDist)
				lb := LowerBound(sum.R[i].U, gap, s.PivotDist)
				if lb < 0 {
					t.Fatalf("negative lower bound %v", lb)
				}
				for _, r := range rp {
					d := vector.Dist(r.Point, s.Point)
					if d > ub+1e-9 || d < lb-1e-9 {
						t.Fatalf("bounds violated: lb=%v d=%v ub=%v (r part %d, s part %d)", lb, d, ub, j, i)
					}
				}
			}
		}
	}
}

// Algorithm 1: θ_i upper-bounds the true kNN distance of every r in P_i^R.
func TestBoundKNNIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pivots := randPivots(rng, 8, 3, 100)
	pp := NewPartitioner(pivots, vector.L2)
	rObjs := randObjects(rng, 120, 3, 100)
	sObjs := randObjects(rng, 200, 3, 100)
	k := 5
	sum, rParts, _ := buildSummary(t, pp, rObjs, sObjs, k)

	for i, rp := range rParts {
		if len(rp) == 0 {
			continue
		}
		theta := sum.BoundKNN(i, pp)
		for _, r := range rp {
			// True k-th nearest neighbor distance by brute force.
			ds := make([]float64, len(sObjs))
			for x, s := range sObjs {
				ds[x] = vector.Dist(r.Point, s.Point)
			}
			kth := kthSmallest(ds, k)
			if kth > theta+1e-9 {
				t.Fatalf("θ_%d = %v < true kNN dist %v for r %d", i, theta, kth, r.ID)
			}
		}
	}
}

func kthSmallest(ds []float64, k int) float64 {
	cp := append([]float64(nil), ds...)
	// Simple selection: sort is fine at test scale.
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[min] {
				min = j
			}
		}
		cp[i], cp[min] = cp[min], cp[i]
	}
	return cp[k-1]
}

func TestBoundKNNUnderflow(t *testing.T) {
	// Fewer than k objects in S ⇒ +Inf (safe, not wrong).
	pp := NewPartitioner([]vector.Point{{0, 0}}, vector.L2)
	b := NewSummaryBuilder(1, 5)
	b.Add(codec.Tagged{Object: codec.Object{ID: 1, Point: vector.Point{1, 0}}, Src: codec.FromR, Partition: 0, PivotDist: 1})
	b.Add(codec.Tagged{Object: codec.Object{ID: 2, Point: vector.Point{0, 1}}, Src: codec.FromS, Partition: 0, PivotDist: 1})
	sum := b.Finalize()
	if got := sum.BoundKNN(0, pp); !math.IsInf(got, 1) {
		t.Fatalf("BoundKNN with |S|<k = %v, want +Inf", got)
	}
}

func TestBoundKNNEmptyRPartition(t *testing.T) {
	pp := NewPartitioner([]vector.Point{{0, 0}, {100, 100}}, vector.L2)
	b := NewSummaryBuilder(2, 1)
	b.Add(codec.Tagged{Object: codec.Object{ID: 1, Point: vector.Point{1, 0}}, Src: codec.FromS, Partition: 0, PivotDist: 1})
	sum := b.Finalize()
	if got := sum.BoundKNN(1, pp); got != 0 {
		t.Fatalf("BoundKNN of empty R partition = %v, want 0", got)
	}
}

// Corollary 2 via LBReplica: dropping s whenever |s,p_j| < LB(P_j^S,P_i^R)
// never drops a true k nearest neighbor of any r ∈ P_i^R.
func TestLBReplicaNeverDropsTrueNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pivots := randPivots(rng, 6, 2, 100)
	pp := NewPartitioner(pivots, vector.L2)
	rObjs := randObjects(rng, 100, 2, 100)
	sObjs := randObjects(rng, 160, 2, 100)
	k := 4
	sum, rParts, sParts := buildSummary(t, pp, rObjs, sObjs, k)

	for i, rp := range rParts {
		if len(rp) == 0 {
			continue
		}
		theta := sum.BoundKNN(i, pp)
		// The replica set S_i per Corollary 2.
		kept := make(map[int64]bool)
		for j, spart := range sParts {
			lb := LBReplica(pp.PivotDist(i, j), sum.R[i].U, theta)
			for _, s := range spart {
				if s.PivotDist >= lb {
					kept[s.ID] = true
				}
			}
		}
		// Every r's true kNN must be inside the replica set.
		for _, r := range rp {
			type cand struct {
				id int64
				d  float64
			}
			cands := make([]cand, len(sObjs))
			for x, s := range sObjs {
				cands[x] = cand{s.ID, vector.Dist(r.Point, s.Point)}
			}
			for a := 0; a < k; a++ {
				min := a
				for b := a + 1; b < len(cands); b++ {
					if cands[b].d < cands[min].d {
						min = b
					}
				}
				cands[a], cands[min] = cands[min], cands[a]
				if !kept[cands[a].id] {
					t.Fatalf("true neighbor %d of r %d (d=%v) was pruned from S_%d",
						cands[a].id, r.ID, cands[a].d, i)
				}
			}
		}
	}
}

// Corollary 1: partitions pruned by the hyperplane rule contain no object
// within θ of the query.
func TestHyperplanePruningIsSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pivots := randPivots(rng, 7, 2, 100)
	pp := NewPartitioner(pivots, vector.L2)
	objs := randObjects(rng, 400, 2, 100)
	parts := pp.Partition(objs, codec.FromS, nil)

	for trial := 0; trial < 100; trial++ {
		q := randObjects(rng, 1, 2, 100)[0].Point
		qPart, qDist := pp.Assign(q, nil)
		theta := rng.Float64() * 30
		for j, part := range parts {
			if j == qPart {
				continue
			}
			dHP := HyperplaneDist(vector.Dist(q, pivots[j]), qDist, pp.PivotDist(qPart, j), vector.L2)
			if dHP > theta {
				for _, o := range part {
					if vector.Dist(q, o.Point) <= theta {
						t.Fatalf("hyperplane pruning dropped object %d at dist %v ≤ θ=%v",
							o.ID, vector.Dist(q, o.Point), theta)
					}
				}
			}
		}
	}
}

// Theorem 2: the pivot-distance window never excludes an object within θ.
func TestTheorem2WindowIsSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pivots := randPivots(rng, 5, 3, 100)
	pp := NewPartitioner(pivots, vector.L2)
	objs := randObjects(rng, 300, 3, 100)
	parts := pp.Partition(objs, codec.FromS, nil)
	b := NewSummaryBuilder(5, 2)
	for _, g := range parts {
		for _, o := range g {
			b.Add(o)
		}
	}
	sum := b.Finalize()

	for trial := 0; trial < 100; trial++ {
		q := randObjects(rng, 1, 3, 100)[0].Point
		theta := rng.Float64() * 40
		for j, part := range parts {
			if len(part) == 0 {
				continue
			}
			rPivotDist := vector.Dist(q, pivots[j])
			lo, hi, ok := Theorem2Window(sum.S[j], rPivotDist, theta)
			for _, o := range part {
				if vector.Dist(q, o.Point) <= theta {
					if !ok || o.PivotDist < lo-1e-12 || o.PivotDist > hi+1e-12 {
						t.Fatalf("Theorem 2 window [%v,%v] ok=%v excludes object %d within θ", lo, hi, ok, o.ID)
					}
				}
			}
		}
	}
}

// The oracle's windowIndices and the Block form the walks scan with,
// vector.Block.PivotDistWindow, both select exactly the rows whose pivot
// distance lies in the window.
func TestWindowIndicesMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	objs := make([]codec.Tagged, 60)
	for i := range objs {
		objs[i] = codec.Tagged{Object: codec.Object{ID: int64(i), Point: vector.Point{0}}, PivotDist: rng.Float64() * 10}
	}
	SortByPivotDist(objs)
	blk := &vector.Block{}
	for _, o := range objs {
		if err := blk.Append(o.ID, o.PivotDist, o.Point); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 200; trial++ {
		lo := rng.Float64() * 12
		hi := lo + rng.Float64()*5 - 1 // sometimes empty
		from, to := windowIndices(objs, lo, hi)
		if bf, bt := blk.PivotDistWindow(0, blk.Len(), lo, hi); bf != from || bt != to {
			t.Fatalf("PivotDistWindow([%v,%v]) = [%d,%d), windowIndices = [%d,%d)", lo, hi, bf, bt, from, to)
		}
		for i, o := range objs {
			inWindow := o.PivotDist >= lo && o.PivotDist <= hi
			inRange := i >= from && i < to
			if inWindow != inRange {
				t.Fatalf("windowIndices([%v,%v]) wrong at index %d (d=%v): window=%v range=%v",
					lo, hi, i, o.PivotDist, inWindow, inRange)
			}
		}
	}
}

func TestSortByPivotDistStableTies(t *testing.T) {
	objs := []codec.Tagged{
		{Object: codec.Object{ID: 5}, PivotDist: 1},
		{Object: codec.Object{ID: 2}, PivotDist: 1},
		{Object: codec.Object{ID: 9}, PivotDist: 0.5},
	}
	SortByPivotDist(objs)
	if objs[0].ID != 9 || objs[1].ID != 2 || objs[2].ID != 5 {
		t.Fatalf("order = %v %v %v", objs[0].ID, objs[1].ID, objs[2].ID)
	}
}

func TestHyperplaneDistZeroGap(t *testing.T) {
	if got := HyperplaneDist(3, 4, 0, vector.L2); got != 0 {
		t.Fatalf("zero pivot gap → %v, want 0", got)
	}
}

// Property (quick): for random configurations, lb ≤ ub always, and both
// react monotonically to U(P_i^R) as Theorems 3/4 dictate.
func TestBoundMonotonicityQuick(t *testing.T) {
	f := func(uRraw, gapRaw, sdRaw, bumpRaw float64) bool {
		abs := func(v float64) float64 {
			v = math.Abs(v)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 1e6)
		}
		uR, gap, sd, bump := abs(uRraw), abs(gapRaw), abs(sdRaw), abs(bumpRaw)
		lb, ub := LowerBound(uR, gap, sd), UpperBound(uR, gap, sd)
		if lb > ub {
			return false
		}
		// Growing U grows ub and shrinks lb (never below 0).
		if UpperBound(uR+bump, gap, sd) < ub {
			return false
		}
		return LowerBound(uR+bump, gap, sd) <= lb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property (quick): partitioning objects never loses any and each object
// lands in its nearest pivot's cell.
func TestPartitionLosslessQuick(t *testing.T) {
	f := func(seed int64, nRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n, np := int(nRaw)%80+1, int(pRaw)%6+1
		pivots := randPivots(rng, np, 2, 50)
		pp := NewPartitioner(pivots, vector.L2)
		objs := randObjects(rng, n, 2, 50)
		parts := pp.Partition(objs, codec.FromR, nil)
		total := 0
		for i, g := range parts {
			total += len(g)
			for _, o := range g {
				for j := range pivots {
					if vector.Dist(o.Point, pivots[j]) < o.PivotDist-1e-12 {
						return false
					}
					_ = j
				}
				if int(o.Partition) != i {
					return false
				}
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAssign(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pp := NewPartitioner(randPivots(rng, 400, 10, 100), vector.L2)
	pt := randObjects(rng, 1, 10, 100)[0].Point
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp.Assign(pt, nil)
	}
}

func BenchmarkBoundKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pivots := randPivots(rng, 200, 10, 100)
	pp := NewPartitioner(pivots, vector.L2)
	rObjs := randObjects(rng, 2000, 10, 100)
	sObjs := randObjects(rng, 2000, 10, 100)
	bld := NewSummaryBuilder(200, 10)
	for _, g := range pp.Partition(rObjs, codec.FromR, nil) {
		for _, o := range g {
			bld.Add(o)
		}
	}
	for _, g := range pp.Partition(sObjs, codec.FromS, nil) {
		for _, o := range g {
			bld.Add(o)
		}
	}
	sum := bld.Finalize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum.BoundKNN(i%200, pp)
	}
}
