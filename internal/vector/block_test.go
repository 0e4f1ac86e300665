package vector

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"knnjoin/internal/nnheap"
)

// randBlock builds a block of n random dim-d points plus the same data
// as standalone Points, with PivotDist ascending (the shuffle order) so
// PivotDistWindow is exercisable.
func randBlock(rng *rand.Rand, n, dim int) (*Block, []Point) {
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 10
		}
		pts[i] = p
	}
	pds := make([]float64, n)
	for i := range pds {
		pds[i] = rng.Float64() * 100
	}
	sort.Float64s(pds)
	b := &Block{}
	for i, p := range pts {
		if err := b.Append(int64(i*7+1), pds[i], p); err != nil {
			panic(err)
		}
	}
	return b, pts
}

// The property at the heart of the block pipeline: every kernel agrees
// EXACTLY (bit for bit, not approximately) with the scalar
// SqDist/Metric.Dist path, across random dims and metrics, including the
// empty block and k > n edges.
func TestBlockKernelsMatchScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	metrics := []Metric{L2, L1, LInf}
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 11, 16, 32, 33} {
		for _, n := range []int{0, 1, 2, 17, 200} {
			b, pts := randBlock(rng, n, dim)
			if b.Len() != n {
				t.Fatalf("dim=%d n=%d: Len=%d", dim, n, b.Len())
			}
			q := make(Point, dim)
			for d := range q {
				q[d] = rng.NormFloat64() * 10
			}

			// SqDistTo / DistTo row for row.
			for i := 0; i < n; i++ {
				if got, want := b.SqDistTo(i, q), SqDist(pts[i], q); got != want {
					t.Fatalf("dim=%d n=%d row=%d: SqDistTo=%v, SqDist=%v", dim, n, i, got, want)
				}
				if !b.At(i).Equal(pts[i]) {
					t.Fatalf("dim=%d n=%d row=%d: At() mismatch", dim, n, i)
				}
				for _, m := range metrics {
					if got, want := b.DistTo(i, q, m), m.Dist(pts[i], q); got != want {
						t.Fatalf("dim=%d n=%d row=%d %v: DistTo=%v, Dist=%v", dim, n, i, m, got, want)
					}
				}
			}

			// NearestK vs the brute-force scalar heap, including k > n.
			for _, k := range []int{1, 3, n + 1, 2*n + 5} {
				for _, m := range metrics {
					h := nnheap.NewKHeap(k)
					scanned := b.NearestK(q, m, h)
					if scanned != n {
						t.Fatalf("scanned %d rows, want %d", scanned, n)
					}
					ref := nnheap.NewKHeap(k)
					for i, p := range pts {
						ref.Push(nnheap.Candidate{ID: int64(i*7 + 1), Dist: m.Dist(p, q)})
					}
					got, want := h.Sorted(), ref.Sorted()
					if len(got) != len(want) {
						t.Fatalf("dim=%d n=%d k=%d %v: %d candidates, want %d", dim, n, k, m, len(got), len(want))
					}
					for i := range got {
						d := got[i].Dist
						if m == L2 {
							d = math.Sqrt(d) // kernels keep L2 squared until emit
						}
						if d != want[i].Dist || got[i].ID != want[i].ID {
							t.Fatalf("dim=%d n=%d k=%d %v cand %d: got (%d,%v), want (%d,%v)",
								dim, n, k, m, i, got[i].ID, d, want[i].ID, want[i].Dist)
						}
					}
				}
			}
		}
	}
}

// The pivot-gap prefilter must select exactly the rows a linear filter
// over PivotDist selects.
func TestPivotDistWindowMatchesLinearFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b, _ := randBlock(rng, 300, 3)
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(b.Len() + 1)
		hi := lo + rng.Intn(b.Len()+1-lo)
		dLo := rng.Float64()*120 - 10
		dHi := dLo + rng.Float64()*40
		from, to := b.PivotDistWindow(lo, hi, dLo, dHi)
		for i := lo; i < hi; i++ {
			in := b.PivotDist[i] >= dLo && b.PivotDist[i] <= dHi
			if in != (i >= from && i < to) {
				t.Fatalf("trial %d: row %d (pd=%v) window [%d,%d) bounds [%v,%v]",
					trial, i, b.PivotDist[i], from, to, dLo, dHi)
			}
		}
	}
	// Empty block, empty window.
	empty := &Block{}
	if from, to := empty.PivotDistWindow(0, 0, 0, 1); from != 0 || to != 0 {
		t.Fatalf("empty block window = [%d,%d)", from, to)
	}
}

func TestBlockRangeToMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range []Metric{L2, L1, LInf} {
		b, pts := randBlock(rng, 120, 4)
		q := Point{1, -2, 3, 0.5}
		theta := 12.0
		var scanned int64
		got := b.RangeTo(q, 0, b.Len(), m, theta, nil, &scanned)
		if scanned != int64(b.Len()) {
			t.Fatalf("scanned = %d, want %d", scanned, b.Len())
		}
		var want []nnheap.Candidate
		for i, p := range pts {
			if d := m.Dist(p, q); d <= theta {
				want = append(want, nnheap.Candidate{ID: b.IDs[i], Dist: d})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d hits, want %d", m, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v hit %d: got %+v, want %+v", m, i, got[i], want[i])
			}
		}
	}
}

func TestBlockAppend(t *testing.T) {
	b := &Block{}
	if err := b.Append(1, 0.5, Point{1, 2}); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if b.Dim != 2 || b.Len() != 1 {
		t.Fatalf("dim=%d len=%d", b.Dim, b.Len())
	}
	if err := b.Append(2, 0.5, Point{1, 2, 3}); err == nil {
		t.Fatal("mixed-dim append did not report an error")
	}
	if b.Len() != 1 {
		t.Fatalf("failed append mutated the block: len=%d", b.Len())
	}
}

// Appending after Prepare must drop the filter codes (they would be
// stale) and fall back to the exact kernel.
func TestBlockAppendDropsKernelMirrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b, _ := randBlock(rng, 64, 8)
	b.Prepare(KernelQuantized)
	if b.ActiveKernel() != KernelQuantized {
		t.Fatalf("ActiveKernel = %v, want quantized", b.ActiveKernel())
	}
	if err := b.Append(999, 1000, make(Point, 8)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if b.ActiveKernel() != KernelBlock {
		t.Fatalf("ActiveKernel after append = %v, want block", b.ActiveKernel())
	}
	if b.codes != nil {
		t.Fatal("append left stale filter codes attached")
	}
}

func TestBlockKernelsPanicOnDimMismatch(t *testing.T) {
	b := &Block{}
	if err := b.Append(1, 0, Point{1, 2}); err != nil {
		t.Fatalf("append: %v", err)
	}
	for name, fn := range map[string]func(){
		"SqDistTo": func() { b.SqDistTo(0, Point{1}) },
		"DistTo":   func() { b.DistTo(0, Point{1}, L2) },
		"NearestK": func() { b.NearestK(Point{1, 2, 3}, L2, nnheap.NewKHeap(1)) },
		"RangeTo":  func() { b.RangeTo(Point{1}, 0, 1, L2, 1, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on dimension mismatch", name)
				}
			}()
			fn()
		}()
	}
}
