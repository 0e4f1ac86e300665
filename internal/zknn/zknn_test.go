package zknn

import (
	"math"
	"testing"
	"testing/quick"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/naive"
	"knnjoin/internal/vector"
)

// newCluster builds an in-process cluster of nodes nodes over fs.
func newCluster(t testing.TB, fs dfs.Store, nodes int) *mapreduce.Cluster {
	t.Helper()
	c, err := mapreduce.NewCluster(fs, nodes, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runZKNN(t testing.TB, rObjs, sObjs []codec.Object, opts Options, nodes int) ([]codec.Result, *runView) {
	t.Helper()
	fs := dfs.New(256)
	cluster := newCluster(t, fs, nodes)
	dataset.ToDFS(fs, "R", rObjs, codec.FromR)
	dataset.ToDFS(fs, "S", sObjs, codec.FromS)
	rep, err := Run(cluster, "R", "S", "out", opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := driver.ReadResults(fs, "out")
	if err != nil {
		t.Fatal(err)
	}
	return got, &runView{pairs: rep.Pairs, shuffle: rep.ShuffleRecords, phases: len(rep.Phases)}
}

type runView struct {
	pairs, shuffle int64
	phases         int
}

func TestZKNNShapeAndValidity(t *testing.T) {
	objs := dataset.Uniform(800, 3, 100, 1)
	got, _ := runZKNN(t, objs, objs, Options{K: 5, Seed: 1}, 4)
	if len(got) != len(objs) {
		t.Fatalf("rows = %d, want %d", len(got), len(objs))
	}
	byID := make(map[int64]vector.Point, len(objs))
	for _, o := range objs {
		byID[o.ID] = o.Point
	}
	for i, res := range got {
		if res.RID != int64(i) {
			t.Fatalf("row %d has RID %d", i, res.RID)
		}
		if len(res.Neighbors) != 5 {
			t.Fatalf("r %d has %d neighbors", res.RID, len(res.Neighbors))
		}
		prev := -1.0
		for _, nb := range res.Neighbors {
			if nb.Dist < prev {
				t.Fatalf("r %d neighbors not ascending", res.RID)
			}
			prev = nb.Dist
			// Every reported distance must be the true distance to a real
			// S object — approximation affects *which* neighbors, never
			// the reported distances.
			want := vector.Dist(byID[res.RID], byID[nb.ID])
			if math.Abs(nb.Dist-want) > 1e-9 {
				t.Fatalf("r %d → s %d: reported %v, true %v", res.RID, nb.ID, nb.Dist, want)
			}
		}
	}
}

func TestZKNNRecallHighWithShifts(t *testing.T) {
	objs := dataset.Uniform(2000, 3, 100, 2)
	exact, _ := naive.BruteForce(objs, objs, 10, vector.L2)
	approx, _ := runZKNN(t, objs, objs, Options{K: 10, Shifts: 3, Seed: 3}, 4)
	if r := Recall(approx, exact); r < 0.9 {
		t.Fatalf("recall with 3 shifts = %.3f, want ≥ 0.9", r)
	}
}

func TestZKNNRecallImprovesWithShifts(t *testing.T) {
	objs := dataset.OSM(2500, 4)
	exact, _ := naive.BruteForce(objs, objs, 10, vector.L2)
	r1Res, _ := runZKNN(t, objs, objs, Options{K: 10, Shifts: 1, CandidatesPerSide: 12, Seed: 5}, 4)
	r4Res, _ := runZKNN(t, objs, objs, Options{K: 10, Shifts: 4, CandidatesPerSide: 12, Seed: 5}, 4)
	r1, r4 := Recall(r1Res, exact), Recall(r4Res, exact)
	if r4 < r1 {
		t.Fatalf("recall fell with more shifts: 1 shift %.3f vs 4 shifts %.3f", r1, r4)
	}
	if r4 < 0.85 {
		t.Fatalf("recall with 4 shifts = %.3f, want ≥ 0.85", r4)
	}
}

func TestZKNNForestHighDims(t *testing.T) {
	objs := dataset.Forest(1500, 6)
	exact, _ := naive.BruteForce(objs, objs, 5, vector.L2)
	approx, _ := runZKNN(t, objs, objs, Options{K: 5, Shifts: 3, Seed: 7}, 4)
	// 10-d z-order has only 6 bits/dim: locality is weaker, so the bar is
	// lower — but it must still be far above random (≈ k/n ≈ 0.003).
	if r := Recall(approx, exact); r < 0.5 {
		t.Fatalf("recall on 10-d forest = %.3f, want ≥ 0.5", r)
	}
}

func TestZKNNCheaperThanExactCross(t *testing.T) {
	objs := dataset.Uniform(3000, 3, 100, 8)
	_, st := runZKNN(t, objs, objs, Options{K: 10, Shifts: 3, Seed: 9}, 4)
	cross := int64(len(objs)) * int64(len(objs))
	if st.pairs >= cross/4 {
		t.Fatalf("zknn computed %d pairs — not cheap vs %d cross product", st.pairs, cross)
	}
}

func TestZKNNSingleNode(t *testing.T) {
	objs := dataset.Uniform(500, 2, 100, 10)
	exact, _ := naive.BruteForce(objs, objs, 5, vector.L2)
	approx, _ := runZKNN(t, objs, objs, Options{K: 5, Shifts: 3, Seed: 11}, 1)
	if r := Recall(approx, exact); r < 0.95 {
		t.Fatalf("single-node 2-d recall = %.3f, want ≥ 0.95", r)
	}
}

func TestZKNNKLargerThanS(t *testing.T) {
	rObjs := dataset.Uniform(50, 2, 100, 12)
	sObjs := dataset.Uniform(4, 2, 100, 13)
	got, _ := runZKNN(t, rObjs, sObjs, Options{K: 10, Seed: 1}, 2)
	for _, res := range got {
		if len(res.Neighbors) != 4 {
			t.Fatalf("r %d: %d neighbors, want all 4", res.RID, len(res.Neighbors))
		}
	}
}

func TestZKNNDeterministicPerSeed(t *testing.T) {
	objs := dataset.Uniform(600, 3, 100, 14)
	a, _ := runZKNN(t, objs, objs, Options{K: 4, Seed: 20}, 4)
	b, _ := runZKNN(t, objs, objs, Options{K: 4, Seed: 20}, 4)
	for i := range a {
		if a[i].RID != b[i].RID || len(a[i].Neighbors) != len(b[i].Neighbors) {
			t.Fatal("same seed, different shapes")
		}
		for j := range a[i].Neighbors {
			if a[i].Neighbors[j] != b[i].Neighbors[j] {
				t.Fatal("same seed, different neighbors")
			}
		}
	}
}

func TestZKNNValidation(t *testing.T) {
	fs := dfs.New(0)
	cluster := newCluster(t, fs, 2)
	if _, err := Run(cluster, "R", "S", "out", Options{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(cluster, "missing", "S", "out", Options{K: 3}); err == nil {
		t.Error("missing input accepted")
	}
	fs.Write("R", nil)
	fs.Write("S", nil)
	if _, err := Run(cluster, "R", "S", "out", Options{K: 3}); err == nil {
		t.Error("empty input accepted")
	}
}

func TestRecallHelper(t *testing.T) {
	exact := []codec.Result{{RID: 1, Neighbors: []codec.Neighbor{{ID: 10, Dist: 1}, {ID: 11, Dist: 2}}}}
	perfect := []codec.Result{{RID: 1, Neighbors: []codec.Neighbor{{ID: 10, Dist: 1}, {ID: 11, Dist: 2}}}}
	if r := Recall(perfect, exact); r != 1 {
		t.Fatalf("perfect recall = %v", r)
	}
	half := []codec.Result{{RID: 1, Neighbors: []codec.Neighbor{{ID: 10, Dist: 1}, {ID: 99, Dist: 5}}}}
	if r := Recall(half, exact); r != 0.5 {
		t.Fatalf("half recall = %v", r)
	}
	// Distance ties count as hits even with different IDs.
	tie := []codec.Result{{RID: 1, Neighbors: []codec.Neighbor{{ID: 77, Dist: 1}, {ID: 11, Dist: 2}}}}
	if r := Recall(tie, exact); r != 1 {
		t.Fatalf("tie recall = %v", r)
	}
	if r := Recall(nil, nil); r != 1 {
		t.Fatalf("empty recall = %v", r)
	}
}

// Property: Morton codes preserve ordering along any single axis when the
// other coordinates are fixed — the monotonicity that makes z-order a
// locality map.
func TestZMonotonicQuick(t *testing.T) {
	q := newQuantizer([]float64{0, 0}, []float64{100, 100}, 0)
	f := func(aRaw, bRaw, otherRaw uint16) bool {
		a := float64(aRaw) / 655.35
		b := float64(bRaw) / 655.35
		other := float64(otherRaw) / 655.35
		if a > b {
			a, b = b, a
		}
		za := q.Z(vector.Point{a, other}, nil)
		zb := q.Z(vector.Point{b, other}, nil)
		return za <= zb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: quantizer cells stay in range for any input, including values
// far outside the box (clamped, never panicking).
func TestQuantizerClampQuick(t *testing.T) {
	q := newQuantizer([]float64{-10}, []float64{10}, 0)
	f := func(v float64) bool {
		if math.IsNaN(v) {
			v = 0
		}
		c := q.cell(0, v)
		return c <= (1<<q.bits)-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRangeOf(t *testing.T) {
	bs := []uint64{10, 20, 30}
	cases := map[uint64]int{0: 0, 10: 0, 11: 1, 20: 1, 25: 2, 30: 2, 31: 3, 1 << 60: 3}
	for z, want := range cases {
		if got := rangeOf(z, bs); got != want {
			t.Errorf("rangeOf(%d) = %d, want %d", z, got, want)
		}
	}
	if got := rangeOf(5, nil); got != 0 {
		t.Errorf("rangeOf with no boundaries = %d", got)
	}
}

func BenchmarkZKNN(b *testing.B) {
	objs := dataset.Uniform(20000, 4, 100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := dfs.New(0)
		cluster := newCluster(b, fs, 8)
		dataset.ToDFS(fs, "R", objs, codec.FromR)
		dataset.ToDFS(fs, "S", objs, codec.FromS)
		if _, err := Run(cluster, "R", "S", "out", Options{K: 10, Shifts: 3, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
