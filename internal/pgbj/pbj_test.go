package pgbj

import (
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/pivot"
	"knnjoin/internal/vector"
)

func runPBJ(t testing.TB, rObjs, sObjs []codec.Object, opts Options, nodes int) ([]codec.Result, *reportView) {
	t.Helper()
	fs := dfs.New(256)
	cluster := newCluster(t, fs, nodes)
	dataset.ToDFS(fs, "R", rObjs, codec.FromR)
	dataset.ToDFS(fs, "S", sObjs, codec.FromS)
	rep, err := RunPBJ(cluster, "R", "S", "out", opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := driver.ReadResults(fs, "out")
	if err != nil {
		t.Fatal(err)
	}
	return got, &reportView{
		pairs:    rep.Pairs,
		replicas: rep.ReplicasS,
		shuffle:  rep.ShuffleRecords,
		phases:   len(rep.Phases),
	}
}

func TestPBJMatchesBruteForce(t *testing.T) {
	rObjs := dataset.Uniform(400, 3, 100, 21)
	sObjs := dataset.Uniform(450, 3, 100, 22)
	got, _ := runPBJ(t, rObjs, sObjs, defaultOpts(), 9)
	assertExact(t, got, rObjs, sObjs, 5, vector.L2)
}

func TestPBJForestSelfJoin(t *testing.T) {
	objs := dataset.Forest(600, 23)
	opts := defaultOpts()
	opts.NumPivots = 24
	got, _ := runPBJ(t, objs, objs, opts, 9)
	assertExact(t, got, objs, objs, 5, vector.L2)
}

func TestPBJSkewedData(t *testing.T) {
	objs := dataset.OSM(500, 24)
	opts := defaultOpts()
	opts.K = 8
	got, _ := runPBJ(t, objs, objs, opts, 4)
	assertExact(t, got, objs, objs, 8, vector.L2)
}

func TestPBJNonSquareNodeCount(t *testing.T) {
	// 6 nodes → √6 rounds to 2 blocks → 4 reducers; must stay exact.
	objs := dataset.Uniform(300, 3, 100, 25)
	got, _ := runPBJ(t, objs, objs, defaultOpts(), 6)
	assertExact(t, got, objs, objs, 5, vector.L2)
}

func TestPBJSingleNode(t *testing.T) {
	objs := dataset.Uniform(200, 2, 100, 26)
	got, _ := runPBJ(t, objs, objs, defaultOpts(), 1)
	assertExact(t, got, objs, objs, 5, vector.L2)
}

func TestPBJVariousK(t *testing.T) {
	objs := dataset.Uniform(250, 3, 100, 27)
	for _, k := range []int{1, 3, 15} {
		opts := defaultOpts()
		opts.K = k
		got, _ := runPBJ(t, objs, objs, opts, 4)
		assertExact(t, got, objs, objs, k, vector.L2)
	}
}

func TestPBJPivotStrategies(t *testing.T) {
	objs := dataset.Forest(400, 28)
	for _, ps := range []pivot.Strategy{pivot.Random, pivot.KMeans} {
		opts := defaultOpts()
		opts.PivotStrategy = ps
		got, _ := runPBJ(t, objs, objs, opts, 4)
		assertExact(t, got, objs, objs, 5, vector.L2)
	}
}

// The paper's §3 accounting: the block framework replicates each S object
// √N times, so PBJ's replication must exceed PGBJ's at the same scale
// while both stay exact.
func TestPBJReplicationMatchesBlockFramework(t *testing.T) {
	objs := dataset.Forest(1000, 29)
	opts := defaultOpts()
	opts.NumPivots = 32
	nodes := 9 // √9 = 3 blocks
	_, rep := runPBJ(t, objs, objs, opts, nodes)
	if rep.replicas != int64(3*len(objs)) {
		t.Fatalf("PBJ replicas = %d, want √N·|S| = %d", rep.replicas, 3*len(objs))
	}
}

// PGBJ's grouping should beat PBJ on computation: the local θ bounds of
// PBJ are looser (§6.2's explanation for PBJ's slower joins).
func TestPGBJBeatsPBJOnPairs(t *testing.T) {
	objs := dataset.Forest(2000, 30)
	opts := defaultOpts()
	opts.NumPivots = 64
	nodes := 9
	_, pgbjRep := runPGBJ(t, objs, objs, opts, nodes)
	_, pbjRep := runPBJ(t, objs, objs, opts, nodes)
	if pgbjRep.pairs >= pbjRep.pairs {
		t.Fatalf("PGBJ pairs %d not below PBJ pairs %d", pgbjRep.pairs, pbjRep.pairs)
	}
}

func TestPBJKLargerThanS(t *testing.T) {
	rObjs := dataset.Uniform(30, 2, 100, 31)
	sObjs := dataset.Uniform(5, 2, 100, 32)
	opts := defaultOpts()
	opts.K = 9
	opts.NumPivots = 3
	got, _ := runPBJ(t, rObjs, sObjs, opts, 4)
	assertExact(t, got, rObjs, sObjs, 9, vector.L2)
}

func TestPBJValidation(t *testing.T) {
	fs := dfs.New(0)
	cluster := newCluster(t, fs, 2)
	if _, err := RunPBJ(cluster, "R", "S", "out", Options{K: 0, NumPivots: 2}); err == nil {
		t.Error("k=0 accepted")
	}
}
