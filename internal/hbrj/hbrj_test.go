package hbrj

import (
	"math"
	"testing"

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

func runHBRJ(t testing.TB, rObjs, sObjs []codec.Object, opts Options, nodes int) ([]codec.Result, int64, int64) {
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
	return got, rep.ReplicasS, rep.ShuffleRecords
}

func assertExact(t *testing.T, got []codec.Result, rObjs, sObjs []codec.Object, k int, m vector.Metric) {
	t.Helper()
	want, _ := naive.BruteForce(rObjs, sObjs, k, m)
	if len(got) != len(want) {
		t.Fatalf("result rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].RID != want[i].RID {
			t.Fatalf("row %d: RID %d, want %d", i, got[i].RID, want[i].RID)
		}
		g, w := got[i].Neighbors, want[i].Neighbors
		if len(g) != len(w) {
			t.Fatalf("r %d: %d neighbors, want %d", got[i].RID, len(g), len(w))
		}
		for j := range w {
			if math.Abs(g[j].Dist-w[j].Dist) > 1e-9 {
				t.Fatalf("r %d neighbor %d: dist %v, want %v", got[i].RID, j, g[j].Dist, w[j].Dist)
			}
		}
	}
}

func TestBlocks(t *testing.T) {
	tests := map[int]int{1: 1, 2: 1, 3: 1, 4: 2, 8: 2, 9: 3, 15: 3, 16: 4, 25: 5, 36: 6}
	for n, want := range tests {
		if got := Blocks(n); got != want {
			t.Errorf("Blocks(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestHBRJMatchesBruteForce(t *testing.T) {
	rObjs := dataset.Uniform(400, 3, 100, 41)
	sObjs := dataset.Uniform(500, 3, 100, 42)
	got, _, _ := runHBRJ(t, rObjs, sObjs, Options{K: 5}, 9)
	assertExact(t, got, rObjs, sObjs, 5, vector.L2)
}

func TestHBRJForestSelfJoin(t *testing.T) {
	objs := dataset.Forest(700, 43)
	got, _, _ := runHBRJ(t, objs, objs, Options{K: 10}, 9)
	assertExact(t, got, objs, objs, 10, vector.L2)
}

func TestHBRJSkewedData(t *testing.T) {
	objs := dataset.OSM(600, 44)
	got, _, _ := runHBRJ(t, objs, objs, Options{K: 5}, 4)
	assertExact(t, got, objs, objs, 5, vector.L2)
}

func TestHBRJVariousNodeCounts(t *testing.T) {
	objs := dataset.Uniform(300, 3, 100, 45)
	for _, nodes := range []int{1, 2, 4, 6, 16} {
		got, _, _ := runHBRJ(t, objs, objs, Options{K: 4}, nodes)
		assertExact(t, got, objs, objs, 4, vector.L2)
	}
}

func TestHBRJVariousK(t *testing.T) {
	objs := dataset.Uniform(250, 2, 100, 46)
	for _, k := range []int{1, 3, 20} {
		got, _, _ := runHBRJ(t, objs, objs, Options{K: k}, 4)
		assertExact(t, got, objs, objs, k, vector.L2)
	}
}

func TestHBRJAlternateMetrics(t *testing.T) {
	objs := dataset.Uniform(300, 3, 100, 47)
	for _, m := range []vector.Metric{vector.L1, vector.LInf} {
		got, _, _ := runHBRJ(t, objs, objs, Options{K: 5, Metric: m}, 4)
		assertExact(t, got, objs, objs, 5, m)
	}
}

func TestHBRJKLargerThanS(t *testing.T) {
	rObjs := dataset.Uniform(50, 2, 100, 48)
	sObjs := dataset.Uniform(7, 2, 100, 49)
	got, _, _ := runHBRJ(t, rObjs, sObjs, Options{K: 12}, 9)
	assertExact(t, got, rObjs, sObjs, 12, vector.L2)
}

func TestHBRJShuffleCostFormula(t *testing.T) {
	// §3: block job shuffles √N·(|R|+|S|); the merge job adds √N·|R|
	// partial result records.
	rObjs := dataset.Uniform(120, 2, 100, 50)
	sObjs := dataset.Uniform(80, 2, 100, 51)
	nodes := 9 // √9 = 3
	_, replicas, shuffle := runHBRJ(t, rObjs, sObjs, Options{K: 3}, nodes)
	if replicas != int64(3*len(sObjs)) {
		t.Fatalf("replicas = %d, want %d", replicas, 3*len(sObjs))
	}
	wantShuffle := int64(3*(len(rObjs)+len(sObjs)) + 3*len(rObjs))
	if shuffle != wantShuffle {
		t.Fatalf("shuffle records = %d, want %d", shuffle, wantShuffle)
	}
}

func TestHBRJValidation(t *testing.T) {
	fs := dfs.New(0)
	cluster := newCluster(t, fs, 4)
	if _, err := Run(cluster, "R", "S", "out", Options{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(cluster, "missing", "S", "out", Options{K: 3}); err == nil {
		t.Error("missing input accepted")
	}
}

func TestMergeResultsKeepsKBest(t *testing.T) {
	fs := dfs.New(0)
	cluster := newCluster(t, fs, 2)
	partials := []codec.Result{
		{RID: 1, Neighbors: []codec.Neighbor{{ID: 10, Dist: 3}, {ID: 11, Dist: 5}}},
		{RID: 1, Neighbors: []codec.Neighbor{{ID: 12, Dist: 1}, {ID: 13, Dist: 4}}},
		{RID: 2, Neighbors: []codec.Neighbor{{ID: 14, Dist: 2}}},
	}
	recs := make([]dfs.Record, len(partials))
	for i, p := range partials {
		recs[i] = codec.EncodeResult(p)
	}
	fs.Write("partials", recs)
	if _, err := cluster.Run(MergeJob("partials", "merged", 2)); err != nil {
		t.Fatal(err)
	}
	got, err := driver.ReadResults(fs, "merged")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rows = %d", len(got))
	}
	r1 := got[0]
	if r1.RID != 1 || len(r1.Neighbors) != 2 ||
		r1.Neighbors[0].ID != 12 || r1.Neighbors[1].ID != 10 {
		t.Fatalf("merged r1 = %+v", r1)
	}
	if got[1].RID != 2 || len(got[1].Neighbors) != 1 {
		t.Fatalf("merged r2 = %+v", got[1])
	}
}
