package naive

import (
	"math"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/mapreduce"
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

func TestBruteForceKnownAnswer(t *testing.T) {
	r := []codec.Object{{ID: 0, Point: vector.Point{0, 0}}}
	s := []codec.Object{
		{ID: 10, Point: vector.Point{1, 0}},
		{ID: 11, Point: vector.Point{0, 2}},
		{ID: 12, Point: vector.Point{3, 0}},
	}
	got, pairs := BruteForce(r, s, 2, vector.L2)
	if pairs != 3 {
		t.Fatalf("pairs = %d", pairs)
	}
	if len(got) != 1 || got[0].RID != 0 {
		t.Fatalf("got %+v", got)
	}
	nbs := got[0].Neighbors
	if len(nbs) != 2 || nbs[0].ID != 10 || nbs[0].Dist != 1 || nbs[1].ID != 11 || nbs[1].Dist != 2 {
		t.Fatalf("neighbors = %+v", nbs)
	}
}

func TestBruteForceSelfJoin(t *testing.T) {
	objs := dataset.Uniform(50, 3, 10, 1)
	got, _ := BruteForce(objs, objs, 1, vector.L2)
	for _, res := range got {
		// In a self-join every object's nearest neighbor is itself (d=0).
		if res.Neighbors[0].Dist != 0 {
			t.Fatalf("r %d nearest dist = %v, want 0", res.RID, res.Neighbors[0].Dist)
		}
	}
}

func TestBruteForceKLargerThanS(t *testing.T) {
	r := dataset.Uniform(10, 2, 10, 2)
	s := dataset.Uniform(3, 2, 10, 3)
	got, _ := BruteForce(r, s, 8, vector.L2)
	for _, res := range got {
		if len(res.Neighbors) != 3 {
			t.Fatalf("got %d neighbors, want all 3", len(res.Neighbors))
		}
	}
}

func TestBruteForceEdgeCases(t *testing.T) {
	objs := dataset.Uniform(5, 2, 10, 4)
	if got, pairs := BruteForce(objs, nil, 3, vector.L2); got != nil || pairs != 0 {
		t.Fatal("empty S should return nil")
	}
	if got, _ := BruteForce(objs, objs, 0, vector.L2); got != nil {
		t.Fatal("k=0 should return nil")
	}
	if got, _ := BruteForce(nil, objs, 3, vector.L2); len(got) != 0 {
		t.Fatal("empty R should return empty")
	}
}

func TestBruteForceResultsSortedByRID(t *testing.T) {
	r := dataset.Uniform(200, 2, 100, 5)
	// Shuffle R's order but keep IDs.
	r[0], r[199] = r[199], r[0]
	s := dataset.Uniform(100, 2, 100, 6)
	got, _ := BruteForce(r, s, 3, vector.L2)
	for i := 1; i < len(got); i++ {
		if got[i].RID < got[i-1].RID {
			t.Fatal("results not sorted by RID")
		}
	}
}

func TestBruteForceAlternateMetrics(t *testing.T) {
	r := []codec.Object{{ID: 0, Point: vector.Point{0, 0}}}
	s := []codec.Object{
		{ID: 1, Point: vector.Point{3, 3}}, // L2 4.24, L1 6, L∞ 3
		{ID: 2, Point: vector.Point{0, 5}}, // L2 5, L1 5, L∞ 5
	}
	got, _ := BruteForce(r, s, 1, vector.L1)
	if got[0].Neighbors[0].ID != 2 {
		t.Fatalf("L1 nearest = %d, want 2", got[0].Neighbors[0].ID)
	}
	got, _ = BruteForce(r, s, 1, vector.LInf)
	if got[0].Neighbors[0].ID != 1 {
		t.Fatalf("L∞ nearest = %d, want 1", got[0].Neighbors[0].ID)
	}
}

func runBroadcast(t *testing.T, rObjs, sObjs []codec.Object, k, nodes int) ([]codec.Result, *statsReport) {
	t.Helper()
	fs := dfs.New(64)
	cluster := newCluster(t, fs, nodes)
	dataset.ToDFS(fs, "R", rObjs, codec.FromR)
	dataset.ToDFS(fs, "S", sObjs, codec.FromS)
	rep, err := Broadcast(cluster, "R", "S", "out", BroadcastOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	got, err := driver.ReadResults(fs, "out")
	if err != nil {
		t.Fatal(err)
	}
	return got, &statsReport{rep.ShuffleRecords, rep.ReplicasS, rep.Pairs}
}

type statsReport struct {
	shuffleRecords, replicasS, pairs int64
}

func TestBroadcastMatchesBruteForce(t *testing.T) {
	rObjs := dataset.Uniform(300, 3, 100, 7)
	sObjs := dataset.Uniform(400, 3, 100, 8)
	k := 5
	got, _ := runBroadcast(t, rObjs, sObjs, k, 4)
	want, _ := BruteForce(rObjs, sObjs, k, vector.L2)
	assertSameResults(t, got, want)
}

func TestBroadcastShuffleCostFormula(t *testing.T) {
	// §3: basic strategy shuffles |R| + N·|S| records.
	rObjs := dataset.Uniform(100, 2, 50, 9)
	sObjs := dataset.Uniform(150, 2, 50, 10)
	nodes := 5
	_, rep := runBroadcast(t, rObjs, sObjs, 3, nodes)
	wantRecords := int64(100 + nodes*150)
	if rep.shuffleRecords != wantRecords {
		t.Fatalf("shuffle records = %d, want %d", rep.shuffleRecords, wantRecords)
	}
	if rep.replicasS != int64(nodes*150) {
		t.Fatalf("replicas = %d, want %d", rep.replicasS, nodes*150)
	}
	if rep.pairs != int64(100*150) {
		t.Fatalf("pairs = %d, want full cross product", rep.pairs)
	}
}

func TestBroadcastSingleNode(t *testing.T) {
	rObjs := dataset.Uniform(50, 2, 50, 11)
	sObjs := dataset.Uniform(60, 2, 50, 12)
	got, _ := runBroadcast(t, rObjs, sObjs, 4, 1)
	want, _ := BruteForce(rObjs, sObjs, 4, vector.L2)
	assertSameResults(t, got, want)
}

func TestBroadcastRejectsBadK(t *testing.T) {
	fs := dfs.New(0)
	cluster := newCluster(t, fs, 2)
	if _, err := Broadcast(cluster, "R", "S", "out", BroadcastOptions{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestReadResultsErrors(t *testing.T) {
	fs := dfs.New(0)
	if _, err := driver.ReadResults(fs, "missing"); err == nil {
		t.Error("missing file accepted")
	}
	fs.Write("bad", []dfs.Record{[]byte("x")})
	if _, err := driver.ReadResults(fs, "bad"); err == nil {
		t.Error("garbage accepted")
	}
}

// assertSameResults verifies two result sets agree by distance multiset —
// the correct equality for kNN joins, where equidistant neighbors may
// legally differ.
func assertSameResults(t *testing.T, got, want []codec.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].RID != want[i].RID {
			t.Fatalf("row %d: RID %d, want %d", i, got[i].RID, want[i].RID)
		}
		if len(got[i].Neighbors) != len(want[i].Neighbors) {
			t.Fatalf("r %d: %d neighbors, want %d", got[i].RID, len(got[i].Neighbors), len(want[i].Neighbors))
		}
		for j := range want[i].Neighbors {
			gd, wd := got[i].Neighbors[j].Dist, want[i].Neighbors[j].Dist
			if math.Abs(gd-wd) > 1e-9 {
				t.Fatalf("r %d neighbor %d: dist %v, want %v", got[i].RID, j, gd, wd)
			}
		}
	}
}

func BenchmarkBruteForce(b *testing.B) {
	r := dataset.Forest(2000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BruteForce(r, r, 10, vector.L2)
	}
}
