package voronoi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/pivot"
	"knnjoin/internal/vector"
)

var allMetrics = []vector.Metric{vector.L2, vector.L1, vector.LInf}

// checkAssign holds Assign to the oracle on every object: same pivot,
// bit-equal distance, same charged count, and an evaluated count within
// [1, |P|]. It returns the evaluated total.
func checkAssign(t testing.TB, name string, pp *Partitioner, objs []vector.Point) int {
	t.Helper()
	total := 0
	for i, pt := range objs {
		var got, want int64
		part, d := pp.Assign(pt, &got)
		wantPart, wantD := fullScanAssign(pp, pt, &want)
		if part != wantPart || math.Float64bits(d) != math.Float64bits(wantD) || got != want {
			t.Fatalf("%s %v |P|=%d object %d %v: Assign = (%d, %x, charged %d), full scan = (%d, %x, charged %d)",
				name, pp.Metric, len(pp.Pivots), i, pt, part, math.Float64bits(d), got, wantPart, math.Float64bits(wantD), want)
		}
		part2, d2, evaluated := pp.AssignEvaluated(pt)
		if part2 != part || math.Float64bits(d2) != math.Float64bits(d) {
			t.Fatalf("%s: AssignEvaluated disagrees with Assign on object %d", name, i)
		}
		if evaluated < 1 || evaluated > len(pp.Pivots) {
			t.Fatalf("%s %v |P|=%d object %d: evaluated %d outside [1, |P|]", name, pp.Metric, len(pp.Pivots), i, evaluated)
		}
		total += evaluated
	}
	return total
}

// points draws n points of the given dimension from gen.
func points(n, dim int, gen func() float64) []vector.Point {
	out := make([]vector.Point, n)
	for i := range out {
		out[i] = make(vector.Point, dim)
		for d := range out[i] {
			out[i][d] = gen()
		}
	}
	return out
}

const numKinds = 9

// assignCorpus generates one seeded (pivots, objects) instance of the
// given kind. The kinds are the inputs on which a pruned, squared-space
// scan can go wrong: exact ties (grids, low-cardinality integers,
// duplicate pivots, objects on pivots) and magnitudes at which squares
// underflow or overflow.
func assignCorpus(kind uint8, seed int64, nPivots, dim int) (name string, pivots, objs []vector.Point) {
	rng := rand.New(rand.NewSource(seed))
	const nObjs = 60
	switch kind % numKinds {
	case 0:
		gen := func() float64 { return rng.Float64() * 1000 }
		return "uniform", points(nPivots, dim, gen), points(nObjs, dim, gen)
	case 1: // clustered: most cuts are short, a few objects are far from everything
		gen := func() float64 { return float64(rng.Intn(8))*1000 + rng.NormFloat64() }
		objs = append(points(nObjs-8, dim, gen), points(8, dim, func() float64 { return rng.NormFloat64() * 1e5 })...)
		return "clustered", points(nPivots, dim, gen), objs
	case 2:
		gen := func() float64 { return float64(rng.Intn(12)) }
		return "integer grid", points(nPivots, dim, gen), points(nObjs, dim, gen)
	case 3:
		gen := func() float64 { return float64(rng.Intn(3)) }
		return "low-cardinality integers", points(nPivots, dim, gen), points(nObjs, dim, gen)
	case 4: // every pivot several times over, in shuffled positions
		base := points((nPivots+3)/4, dim, func() float64 { return rng.Float64() * 100 })
		for i := 0; i < nPivots; i++ {
			pivots = append(pivots, base[rng.Intn(len(base))].Clone())
		}
		return "duplicate pivots", pivots, points(nObjs, dim, func() float64 { return rng.Float64() * 100 })
	case 5: // objects are pivots, exactly and one ulp off
		pivots = points(nPivots, dim, func() float64 { return rng.Float64() * 100 })
		for i := 0; i < nObjs; i++ {
			o := pivots[rng.Intn(nPivots)].Clone()
			if i%2 == 1 && dim > 0 {
				d := rng.Intn(dim)
				o[d] = math.Nextafter(o[d], math.Inf(1))
			}
			objs = append(objs, o)
		}
		return "objects on pivots", pivots, objs
	case 6: // pivots in piles one ulp apart: squares differ, roots tie
		base := points((nPivots+3)/4, dim, func() float64 { return rng.Float64() * 100 })
		for i := 0; i < nPivots; i++ {
			pv := base[rng.Intn(len(base))].Clone()
			if dim > 0 {
				d := rng.Intn(dim)
				pv[d] = math.Nextafter(pv[d], float64(rng.Intn(3)-1)*1000)
			}
			pivots = append(pivots, pv)
		}
		return "pivots one ulp apart", pivots, points(nObjs, dim, func() float64 { return rng.Float64() * 100 })
	case 7:
		gen := func() float64 { return rng.NormFloat64() * 0x1p-530 }
		return "squares underflow", points(nPivots, dim, gen), points(nObjs, dim, gen)
	default:
		scale := []float64{0x1p500, 0x1p510, 0x1p1000}[rng.Intn(3)]
		gen := func() float64 { return rng.NormFloat64() * scale }
		return "squares overflow", points(nPivots, dim, gen), points(nObjs, dim, gen)
	}
}

func TestAssignMatchesFullScan(t *testing.T) {
	dims := []int{1, 2, 3, 4, 5, 7, 8, 10, 16, 17, 33}
	for _, n := range []int{1, 2, 3, 7, 244, 632} {
		for kind := uint8(0); kind < numKinds; kind++ {
			for i, dim := range dims {
				if n > 7 && (i+int(kind))%3 != 0 {
					continue // the large pivot sets take a third of the dims per kind
				}
				name, pivots, objs := assignCorpus(kind, int64(1000*n+dim), n, dim)
				for _, m := range allMetrics {
					checkAssign(t, fmt.Sprintf("%s dim=%d", name, dim), NewPartitioner(pivots, m), objs)
				}
			}
		}
	}
}

// TestAssignSqrtTies builds what the squared-space scan must not get
// wrong by comparing squares: two pivots whose squared distances to the
// object differ by an ulp while their square roots are the same double.
// The full scan compares after the root, so the tie goes to the lower
// index even when that pivot's square is the larger one.
func TestAssignSqrtTies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	found := 0
	for try := 0; try < 100000 && found < 50; try++ {
		obj := vector.Point{rng.Float64(), rng.Float64()}
		near := vector.Point{rng.Float64() * 10, rng.Float64() * 10}
		far := near.Clone()
		far[0] = math.Nextafter(far[0], far[0]+math.Copysign(1, far[0]-obj[0]))
		sqNear, sqFar := vector.SqDist(obj, near), vector.SqDist(obj, far)
		if sqNear == sqFar || vector.Dist(obj, near) != vector.Dist(obj, far) {
			continue
		}
		found++
		// Distractors far away keep the set non-trivial without joining the tie.
		rest := points(9, 2, func() float64 { return 100 + rng.Float64()*100 })
		for _, order := range [][]vector.Point{{far, near}, {near, far}} {
			pivots := append(append([]vector.Point{}, rest[:4]...), order...)
			pivots = append(pivots, rest[4:]...)
			pp := NewPartitioner(pivots, vector.L2)
			checkAssign(t, "sqrt tie", pp, []vector.Point{obj})
			if part, _ := pp.Assign(obj, nil); part != 4 {
				t.Fatalf("post-sqrt tie went to pivot %d, want the lower index 4", part)
			}
		}
	}
	if found == 0 {
		t.Fatal("no pair of squares one ulp apart with equal roots found; the construction is broken")
	}
}

// TestAssignUnderflowTie is the case a purely relative cut gets wrong:
// the object's squared distances to pivots 1 and 3 both underflow to
// zero — a tie, lower index wins — while the two pivots are just far
// enough apart for their own distance to survive as a positive double.
// The cut around pivot 3 (a landmark, found first) is zero; pivot 1 is
// kept only because the lists read so small a distance as 0.
func TestAssignUnderflowTie(t *testing.T) {
	pivots := points(7, 1, func() float64 { return 1e-150 })
	pivots[1][0], pivots[3][0] = -1.4e-162, 1.4e-162
	pp := NewPartitioner(pivots, vector.L2)
	if pp.PivotDist(1, 3) <= 0 {
		t.Fatal("the two tied pivots must be a positive distance apart for this case to bite")
	}
	obj := vector.Point{0}
	checkAssign(t, "underflow tie", pp, []vector.Point{obj})
	if part, d := pp.Assign(obj, nil); part != 1 || d != 0 {
		t.Fatalf("Assign = (%d, %v), want pivot 1 at distance 0", part, d)
	}
}

// FuzzAssignMatchesScan explores the corpus generator's whole parameter
// space, and raw coordinates on top of it: the last object of every
// instance is built from the fuzzer's own float bits.
func FuzzAssignMatchesScan(f *testing.F) {
	for kind := uint8(0); kind < numKinds; kind++ {
		f.Add(kind, int64(kind)+1, uint16(7), uint8(2), uint8(0), uint64(0x3ff0000000000000))
		f.Add(kind, int64(kind)+9, uint16(244), uint8(10), uint8(kind%3), uint64(0x0000000000000001))
	}
	f.Add(uint8(0), int64(3), uint16(632), uint8(2), uint8(0), uint64(0x7fe0000000000000))
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, nPivots uint16, dim, metric uint8, raw uint64) {
		n, d := int(nPivots)%700+1, int(dim)%34
		name, pivots, objs := assignCorpus(kind, seed, n, d)
		if v := math.Float64frombits(raw); d > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			o := objs[0].Clone()
			o[int(seed&0xff)%d] = v
			objs = append(objs, o)
		}
		checkAssign(t, name, NewPartitioner(pivots, allMetrics[int(metric)%3]), objs)
	})
}

// TestAssignPrunes pins the point of the scan: on the seeded 2-d (OSM-
// like) and 10-d (Forest-like) generators at 2·√n random pivots it
// evaluates fewer than half the comparisons the full scan is charged.
func TestAssignPrunes(t *testing.T) {
	for _, data := range [][]codec.Object{dataset.OSM(4000, 1), dataset.Forest(4000, 1)} {
		nPivots := 2 * int(math.Sqrt(float64(len(data))))
		pivots, err := pivot.Select(pivot.Random, data, nPivots, pivot.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		objs := make([]vector.Point, len(data))
		for i, o := range data {
			objs[i] = o.Point
		}
		evaluated := checkAssign(t, "prunes", NewPartitioner(pivots, vector.L2), objs)
		if charged := len(objs) * nPivots; evaluated >= charged/2 {
			t.Fatalf("dim %d: evaluated %d of %d charged comparisons, want fewer than half", objs[0].Dim(), evaluated, charged)
		}
		t.Logf("dim %d: evaluated %d of %d charged comparisons", objs[0].Dim(), evaluated, len(objs)*nPivots)
	}
}

// The walk's early exit rests on each list being a prefix of its
// pivot's row in ascending (rounded-down distance, index) order — also
// after a longer list has replaced a shorter one.
func TestNearestListsArePrefixesOfTheSortedRow(t *testing.T) {
	for _, kind := range []uint8{0, 2, 4} { // distinct distances, many ties, duplicate pivots
		_, pivots, _ := assignCorpus(kind, 11, 300, 2)
		pp := NewPartitioner(pivots, vector.L2)
		for _, o := range []int{0, 1, 150, 299} {
			var row []neighbour
			for j := range pivots {
				if j != o {
					row = append(row, makeNeighbour(j, pp.PivotDist(o, j)))
				}
			}
			slices.Sort(row)
			for _, want := range []int{nearLen, 1, 4 * nearLen, 5000} {
				got := pp.nearest(o, want)
				if len(got) < min(want, len(row)) || !slices.Equal(got, row[:len(got)]) {
					t.Fatalf("kind %d pivot %d: nearest(%d) is not a prefix of the sorted row (len %d)", kind, o, want, len(got))
				}
			}
		}
	}
	for _, pd := range []float64{0, 1e-300, 1.1, 0.1, 1e30, 1e300, math.Inf(1), math.MaxFloat32} {
		if got := makeNeighbour(9, pd); got.idx() != 9 || got.dist() > pd || math.IsInf(got.dist(), 0) {
			t.Errorf("makeNeighbour(9, %v) = (%d, %v): want index 9 and a finite distance rounded down", pd, got.idx(), got.dist())
		}
	}
}

// TestAssignSharedPartitioner hammers one Partitioner from 8 goroutines,
// the way job 1's side data and the serving index share it: the lazily
// built nearest-pivot lists are the only state that is written after
// NewPartitioner. Run under -race.
func TestAssignSharedPartitioner(t *testing.T) {
	_, pivots, _ := assignCorpus(1, 42, 300, 3)
	pp := NewPartitioner(pivots, vector.L2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, _, objs := assignCorpus(1, int64(g%2), 300, 3) // two goroutines per object set
			for i, pt := range objs {
				part, d := pp.Assign(pt, nil)
				wantPart, wantD := fullScanAssign(pp, pt, nil)
				if part != wantPart || math.Float64bits(d) != math.Float64bits(wantD) {
					t.Errorf("goroutine %d object %d: Assign = (%d, %v), full scan = (%d, %v)", g, i, part, d, wantPart, wantD)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
