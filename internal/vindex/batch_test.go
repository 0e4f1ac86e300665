package vindex

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"knnjoin/internal/dataset"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/vector"
)

// testKernels lists every tier, the scalar oracle first.
var testKernels = []vector.Kernel{
	vector.KernelScalar, vector.KernelBlock, vector.KernelQuantized, vector.KernelAuto,
}

// forceTier re-prepares every partition block on tier k, so the tests
// can run one index through each tier.
func forceTier(ix *Index, k vector.Kernel) {
	for _, blk := range ix.blocks {
		blk.Prepare(k)
	}
}

func sameCandidates(t *testing.T, got, want []nnheap.Candidate, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID ||
			math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s pos %d: (%d, %v), want (%d, %v)",
				label, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// Every kernel tier must return the exact same neighbors and the exact
// same work accounting as the scalar oracle: the quantized tier only
// skips rows its certified bounds prove non-contributing, and the stats
// count windowed rows, not refined rows.
func TestKernelTiersSameKNN(t *testing.T) {
	objs := dataset.Forest(2500, 3)
	ix, err := Build(objs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	queries := make([]vector.Point, 25)
	for i := range queries {
		q := objs[rng.Intn(len(objs))].Point.Clone()
		for d := range q {
			q[d] += rng.NormFloat64() * 5
		}
		queries[i] = q
	}
	type answer struct {
		res []nnheap.Candidate
		st  Stats
	}
	forceTier(ix, testKernels[0])
	base := make([]answer, len(queries))
	for i, q := range queries {
		base[i].res, base[i].st = ix.KNNWithStats(q, 10)
	}
	for _, kern := range testKernels[1:] {
		forceTier(ix, kern)
		for i, q := range queries {
			res, st := ix.KNNWithStats(q, 10)
			sameCandidates(t, res, base[i].res, kern.String())
			if st != base[i].st {
				t.Fatalf("%v query %d: stats %+v, want %+v", kern, i, st, base[i].st)
			}
		}
	}
}

// The round-lockstep batch must be indistinguishable from sequential
// per-query calls — results and stats — on every kernel tier.
func TestKNNBatchMatchesSequential(t *testing.T) {
	objs := dataset.OSM(3000, 5)
	ix, err := Build(objs, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	qs := make([]vector.Point, 40)
	ks := make([]int, len(qs))
	for i := range qs {
		qs[i] = vector.Point{rng.Float64()*360 - 180, rng.Float64()*170 - 85}
		ks[i] = rng.Intn(12) // includes k=0 → nil result
	}
	for _, kern := range testKernels {
		forceTier(ix, kern)
		gotRes, gotSt := ix.KNNBatchWithStats(qs, ks)
		for i := range qs {
			wantRes, wantSt := ix.KNNWithStats(qs[i], ks[i])
			sameCandidates(t, gotRes[i], wantRes, kern.String())
			if gotSt[i] != wantSt {
				t.Fatalf("%v query %d: stats %+v, want %+v", kern, i, gotSt[i], wantSt)
			}
		}
	}
}

func TestKNNBatchEmptyAndDegenerate(t *testing.T) {
	objs := dataset.Uniform(50, 2, 10, 3)
	ix, err := Build(objs, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, st := ix.KNNBatchWithStats(nil, nil)
	if len(res) != 0 || len(st) != 0 {
		t.Fatalf("empty batch returned %d/%d entries", len(res), len(st))
	}
	for _, k := range []int{100, 1 << 40} {
		res = ix.KNNBatch([]vector.Point{{5, 5}}, k)
		if len(res[0]) != 50 {
			t.Fatalf("k=%d > n returned %d", k, len(res[0]))
		}
	}
}

// Save/Load round-trips must keep block-kernel queries exact: the
// loaded index rebuilds its partition blocks from the stored Tagged
// records and re-attaches the tier each block's shape picks.
func TestLoadRebuildsBlocks(t *testing.T) {
	objs := dataset.Forest(800, 9)
	ix, err := Build(objs, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	forceTier(ix, vector.KernelQuantized)
	q := objs[13].Point
	want := ix.KNN(q, 7)

	dir := t.TempDir()
	path := dir + "/ix.bin"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ld, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameCandidates(t, ld.KNN(q, 7), want, "loaded")
	forceTier(ld, vector.KernelScalar)
	sameCandidates(t, ld.KNN(q, 7), want, "loaded/scalar")
}
