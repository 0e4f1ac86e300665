package vector

import (
	"math"
	"math/rand"
	"testing"

	"knnjoin/internal/nnheap"
)

// allKernels lists every tier, the scalar oracle first. Every tier-
// equality test below covers d ∈ {2, 8, 32} at ≥ 128 rows, the shapes
// where KernelAuto switches tier.
var allKernels = []Kernel{KernelScalar, KernelBlock, KernelQuantized, KernelAuto}

// adversarialBlock builds a block full of near-tie distances: clusters
// of points at distance ~1 from the origin separated by a few ulps, plus
// exact duplicates — the inputs where an unsound filter bound or a
// changed comparison order would first show.
func adversarialBlock(rng *rand.Rand, n, dim int) *Block {
	b := &Block{}
	base := make(Point, dim)
	for d := range base {
		base[d] = rng.Float64()
	}
	pds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		p := make(Point, dim)
		copy(p, base)
		switch i % 4 {
		case 0: // exact duplicate of base
		case 1: // one-ulp nudge
			p[i%dim] = math.Nextafter(p[i%dim], 2)
		case 2: // tiny offset, still clustered
			p[i%dim] += 1e-9 * float64(i)
		default: // far point
			for d := range p {
				p[d] = rng.NormFloat64() * 5
			}
		}
		pds = append(pds, float64(len(pds)))
		if err := b.Append(int64(i+1), pds[i], p); err != nil {
			panic(err)
		}
	}
	return b
}

func sortedEqual(a, b []nnheap.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// Every kernel tier must retain a bit-identical candidate set to the
// default float64 block kernel, across dims, metrics, k > n, empty
// blocks, duplicates, and near-ties.
func TestKernelTiersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dim := range []int{1, 2, 8, 32} {
		for _, n := range []int{0, 1, 5, 300} {
			blocks := []*Block{adversarialBlock(rng, n, dim)}
			rb, _ := randBlock(rng, n, dim)
			blocks = append(blocks, rb)
			for _, ref := range blocks {
				for _, m := range []Metric{L2, L1, LInf} {
					for _, k := range []int{1, 4, n + 3} {
						q := make(Point, dim)
						for d := range q {
							q[d] = rng.NormFloat64()
						}
						want := nnheap.NewKHeap(k)
						ref.Prepare(KernelBlock)
						ref.NearestK(q, m, want)
						for _, kern := range allKernels {
							ref.Prepare(kern)
							h := nnheap.NewKHeap(k)
							scanned := ref.NearestK(q, m, h)
							if scanned != n {
								t.Fatalf("%v: scanned %d, want %d", kern, scanned, n)
							}
							if !sortedEqual(h.Sorted(), want.Sorted()) {
								t.Fatalf("dim=%d n=%d k=%d m=%v kernel=%v: candidate set differs from float64 path",
									dim, n, k, m, kern)
							}
						}
					}
				}
			}
		}
	}
}

// Same identity for the range kernels, exercising the theta boundary.
func TestKernelTiersRangeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, dim := range []int{1, 2, 8, 32} {
		b := adversarialBlock(rng, 200, dim)
		q := make(Point, dim)
		for d := range q {
			q[d] = rng.NormFloat64()
		}
		for _, theta := range []float64{0, 1e-12, 1, 5, math.Inf(1)} {
			b.Prepare(KernelBlock)
			want := b.RangeTo(q, 0, b.Len(), L2, theta, nil, nil)
			for _, kern := range allKernels {
				b.Prepare(kern)
				got := b.RangeTo(q, 0, b.Len(), L2, theta, nil, nil)
				if !sortedEqual(got, want) {
					t.Fatalf("dim=%d theta=%v kernel=%v: range hits differ from float64 path", dim, theta, kern)
				}
			}
		}
	}
}

// The batched kernels must agree bit for bit with the sequential
// per-query calls — including per-query windows and the scanned count.
// One scratch serves every call, across dimensionalities and tiers, the
// way a reducer holds one for its whole group.
func TestNearestKBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var sc Scratch
	for _, dim := range []int{1, 2, 8, 32} {
		for _, kern := range allKernels {
			for _, n := range []int{0, 1, 17, 500} {
				b, _ := randBlock(rng, n, dim)
				b.Prepare(kern)
				nq := 9
				qs := make([]Point, nq)
				lo, hi := make([]int, nq), make([]int, nq)
				for i := range qs {
					q := make(Point, dim)
					for d := range q {
						q[d] = rng.NormFloat64() * 10
					}
					qs[i] = q
					lo[i] = rng.Intn(n + 1)
					hi[i] = lo[i] + rng.Intn(n+1-lo[i])
					if i == 0 {
						lo[i], hi[i] = 3, 2 // degenerate window
					}
				}
				for _, m := range []Metric{L2, L1} {
					k := 7
					seqHeaps := make([]*nnheap.KHeap, nq)
					var seqScanned int64
					for i := range qs {
						seqHeaps[i] = nnheap.NewKHeap(k)
						seqScanned += int64(b.NearestKRange(qs[i], lo[i], hi[i], m, seqHeaps[i]))
					}
					batchHeaps := make([]*nnheap.KHeap, nq)
					for i := range batchHeaps {
						batchHeaps[i] = nnheap.NewKHeap(k)
					}
					scanned := b.NearestKBatchRanges(qs, lo, hi, m, batchHeaps, &sc)
					if scanned != seqScanned {
						t.Fatalf("dim=%d kern=%v m=%v: batch scanned %d, sequential %d", dim, kern, m, scanned, seqScanned)
					}
					for i := range qs {
						if !sortedEqual(batchHeaps[i].Sorted(), seqHeaps[i].Sorted()) {
							t.Fatalf("dim=%d kern=%v m=%v query %d: batch result differs from sequential", dim, kern, m, i)
						}
					}

					// Full-block batch vs sequential NearestK.
					fullSeq := make([]*nnheap.KHeap, nq)
					fullBatch := make([]*nnheap.KHeap, nq)
					for i := range qs {
						fullSeq[i] = nnheap.NewKHeap(k)
						fullBatch[i] = nnheap.NewKHeap(k)
						b.NearestK(qs[i], m, fullSeq[i])
					}
					if got, want := b.NearestKBatch(qs, m, fullBatch), int64(nq)*int64(n); got != want && n > 0 {
						t.Fatalf("dim=%d kern=%v m=%v: NearestKBatch scanned %d, want %d", dim, kern, m, got, want)
					}
					for i := range qs {
						if !sortedEqual(fullBatch[i].Sorted(), fullSeq[i].Sorted()) {
							t.Fatalf("dim=%d kern=%v m=%v query %d: full batch differs", dim, kern, m, i)
						}
					}
				}
			}
		}
	}
}

func TestRangeToBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var sc Scratch
	for _, dim := range []int{1, 2, 8, 32} {
		for _, kern := range allKernels {
			b, _ := randBlock(rng, 400, dim)
			b.Prepare(kern)
			nq := 6
			qs := make([]Point, nq)
			lo, hi := make([]int, nq), make([]int, nq)
			for i := range qs {
				q := make(Point, dim)
				for d := range q {
					q[d] = rng.NormFloat64() * 10
				}
				qs[i] = q
				lo[i] = rng.Intn(b.Len() + 1)
				hi[i] = lo[i] + rng.Intn(b.Len()+1-lo[i])
			}
			theta := 10.0
			var seqScanned int64
			want := make([][]nnheap.Candidate, nq)
			for i := range qs {
				want[i] = b.RangeTo(qs[i], lo[i], hi[i], L2, theta, nil, &seqScanned)
			}
			var batchScanned int64
			got := make([][]nnheap.Candidate, nq)
			b.RangeToBatchRanges(qs, lo, hi, L2, theta, got, &batchScanned, &sc)
			if batchScanned != seqScanned {
				t.Fatalf("dim=%d kern=%v: batch scanned %d, sequential %d", dim, kern, batchScanned, seqScanned)
			}
			for i := range qs {
				if !sortedEqual(got[i], want[i]) {
					t.Fatalf("dim=%d kern=%v query %d: batch range hits differ", dim, kern, i)
				}
			}
		}
	}
}

// Prepare must fall back to the exact tier when a block cannot support
// the requested one, and report what it resolved.
func TestPrepareFallbacks(t *testing.T) {
	empty := &Block{}
	empty.Prepare(KernelQuantized)
	if empty.ActiveKernel() != KernelBlock {
		t.Fatalf("empty block ActiveKernel = %v, want block", empty.ActiveKernel())
	}

	inf := &Block{}
	if err := inf.Append(1, 0, Point{1, math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	inf.Prepare(KernelQuantized)
	if inf.ActiveKernel() != KernelBlock {
		t.Fatalf("non-finite block quantized ActiveKernel = %v, want block fallback", inf.ActiveKernel())
	}
	// The fallback must still scan exactly: the finite row wins, the
	// Inf-distance row is dropped by the bound check.
	if err := inf.Append(2, 1, Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	inf.Prepare(KernelAuto)
	h := nnheap.NewKHeap(1)
	inf.NearestK(Point{1, 2}, L2, h)
	if h.Len() != 1 || h.Top().ID != 2 {
		t.Fatalf("retained %d candidates (top %+v), want the finite row", h.Len(), h.Top())
	}

	rng := rand.New(rand.NewSource(46))
	big, _ := randBlock(rng, 256, 16)
	big.Prepare(KernelAuto)
	if big.ActiveKernel() != KernelQuantized {
		t.Fatalf("auto on 256×16 resolved to %v, want quantized", big.ActiveKernel())
	}
	small, _ := randBlock(rng, 8, 2)
	small.Prepare(KernelAuto)
	if small.ActiveKernel() != KernelBlock {
		t.Fatalf("auto on 8×2 resolved to %v, want block", small.ActiveKernel())
	}
}

// The safety invariant of the prune: the quantized lower bound never
// exceeds the true distance (checked in squared space against the exact
// kernel). Violating it would silently drop true neighbors.
func FuzzQuantizedLowerBound(f *testing.F) {
	f.Add(int64(1), 4, 0.0, 1.0)
	f.Add(int64(2), 32, -100.0, 1e-6)
	f.Add(int64(3), 1, 1e12, 5.0)
	f.Add(int64(4), 8, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, dim int, center, spread float64) {
		if dim < 1 || dim > 64 {
			return
		}
		if math.IsNaN(center) || math.IsInf(center, 0) || math.IsNaN(spread) || math.IsInf(spread, 0) {
			return
		}
		if math.Abs(center) > 1e100 || math.Abs(spread) > 1e100 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		n := 40
		b := &Block{}
		for i := 0; i < n; i++ {
			p := make(Point, dim)
			for d := range p {
				p[d] = center + rng.NormFloat64()*spread
			}
			if err := b.Append(int64(i), float64(i), p); err != nil {
				t.Fatal(err)
			}
		}
		q := make(Point, dim)
		for d := range q {
			q[d] = center + rng.NormFloat64()*spread*3
		}
		sc := &Scratch{}
		b.Prepare(KernelQuantized)
		if b.ActiveKernel() == KernelQuantized {
			for i := 0; i < n; i++ {
				lb := b.quantLowerBound(i, q, sc)
				if lb <= 0 {
					continue
				}
				if s := b.SqDistTo(i, q); lb*lb > s {
					t.Fatalf("quantized lower bound %v exceeds true distance %v (row %d)", lb, math.Sqrt(s), i)
				}
			}
		}
	})
}
