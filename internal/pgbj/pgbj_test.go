package pgbj

import (
	"math"
	"reflect"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/naive"
	"knnjoin/internal/pivot"
	"knnjoin/internal/stats"
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

// runPGBJ loads R and S into a fresh cluster, runs PGBJ, and returns the
// sorted results plus the report.
func runPGBJ(t testing.TB, rObjs, sObjs []codec.Object, opts Options, nodes int) ([]codec.Result, *reportView) {
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
	return got, &reportView{
		pairs:     rep.Pairs,
		replicas:  rep.ReplicasS,
		shuffle:   rep.ShuffleRecords,
		selectivy: rep.Selectivity(),
		phases:    len(rep.Phases),
	}
}

type reportView struct {
	pairs, replicas, shuffle int64
	selectivy                float64
	phases                   int
}

// assertExact verifies got equals the brute-force join by neighbor
// distances (ties may differ by ID, never by distance).
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

func defaultOpts() Options {
	return Options{K: 5, NumPivots: 16, PivotStrategy: pivot.Random, GroupStrategy: Geometric, Seed: 1}
}

func TestPGBJMatchesBruteForceUniform(t *testing.T) {
	rObjs := dataset.Uniform(400, 3, 100, 1)
	sObjs := dataset.Uniform(500, 3, 100, 2)
	got, _ := runPGBJ(t, rObjs, sObjs, defaultOpts(), 4)
	assertExact(t, got, rObjs, sObjs, 5, vector.L2)
}

func TestPGBJMatchesBruteForceForest(t *testing.T) {
	objs := dataset.Forest(800, 3)
	opts := defaultOpts()
	opts.NumPivots = 32
	got, _ := runPGBJ(t, objs, objs, opts, 8)
	assertExact(t, got, objs, objs, 5, vector.L2)
}

func TestPGBJMatchesBruteForceSkewedOSM(t *testing.T) {
	objs := dataset.OSM(700, 4)
	opts := defaultOpts()
	opts.K = 10
	got, _ := runPGBJ(t, objs, objs, opts, 4)
	assertExact(t, got, objs, objs, 10, vector.L2)
}

func TestPGBJAllStrategyCombinations(t *testing.T) {
	objs := dataset.Forest(500, 5)
	for _, ps := range []pivot.Strategy{pivot.Random, pivot.Farthest, pivot.KMeans} {
		for _, gs := range []GroupStrategy{Geometric, Greedy} {
			opts := defaultOpts()
			opts.PivotStrategy = ps
			opts.GroupStrategy = gs
			got, _ := runPGBJ(t, objs, objs, opts, 4)
			assertExact(t, got, objs, objs, opts.K, vector.L2)
		}
	}
}

func TestPGBJVariousK(t *testing.T) {
	objs := dataset.Uniform(300, 4, 100, 6)
	for _, k := range []int{1, 2, 7, 25} {
		opts := defaultOpts()
		opts.K = k
		got, _ := runPGBJ(t, objs, objs, opts, 4)
		assertExact(t, got, objs, objs, k, vector.L2)
	}
}

func TestPGBJVariousDimensions(t *testing.T) {
	base := dataset.Forest(400, 7)
	for _, d := range []int{2, 5, 8} {
		objs := dataset.Project(base, d)
		got, _ := runPGBJ(t, objs, objs, defaultOpts(), 4)
		assertExact(t, got, objs, objs, 5, vector.L2)
	}
}

func TestPGBJAlternateMetrics(t *testing.T) {
	objs := dataset.Uniform(300, 3, 100, 8)
	for _, m := range []vector.Metric{vector.L1, vector.LInf} {
		opts := defaultOpts()
		opts.Metric = m
		got, _ := runPGBJ(t, objs, objs, opts, 4)
		assertExact(t, got, objs, objs, 5, m)
	}
}

func TestPGBJMoreGroupsThanNodes(t *testing.T) {
	objs := dataset.Uniform(300, 2, 100, 9)
	opts := defaultOpts()
	opts.NumGroups = 12 // groups exceed the 3 nodes: reducers handle several
	got, _ := runPGBJ(t, objs, objs, opts, 3)
	assertExact(t, got, objs, objs, 5, vector.L2)
}

func TestPGBJSingleNode(t *testing.T) {
	objs := dataset.Uniform(200, 3, 100, 10)
	got, _ := runPGBJ(t, objs, objs, defaultOpts(), 1)
	assertExact(t, got, objs, objs, 5, vector.L2)
}

func TestPGBJKLargerThanS(t *testing.T) {
	rObjs := dataset.Uniform(40, 2, 100, 11)
	sObjs := dataset.Uniform(6, 2, 100, 12)
	opts := defaultOpts()
	opts.K = 10
	opts.NumPivots = 4
	got, _ := runPGBJ(t, rObjs, sObjs, opts, 2)
	assertExact(t, got, rObjs, sObjs, 10, vector.L2)
}

func TestPGBJDuplicatePoints(t *testing.T) {
	objs := dataset.Uniform(100, 2, 5, 13) // tight range forces duplicates post-rounding
	for i := range objs {
		objs[i].Point[0] = math.Round(objs[i].Point[0])
		objs[i].Point[1] = math.Round(objs[i].Point[1])
	}
	opts := defaultOpts()
	opts.NumPivots = 8
	got, _ := runPGBJ(t, objs, objs, opts, 4)
	assertExact(t, got, objs, objs, 5, vector.L2)
}

func TestPGBJAblationPruningStillExact(t *testing.T) {
	objs := dataset.Forest(400, 14)
	for _, mod := range []func(*Options){
		func(o *Options) { o.DisableHyperplanePruning = true },
		func(o *Options) { o.DisableWindowPruning = true },
		func(o *Options) { o.DisableHyperplanePruning = true; o.DisableWindowPruning = true },
		func(o *Options) { o.DisableNearestFirstOrder = true },
		func(o *Options) {
			o.DisableHyperplanePruning = true
			o.DisableWindowPruning = true
			o.DisableNearestFirstOrder = true
		},
	} {
		opts := defaultOpts()
		mod(&opts)
		got, _ := runPGBJ(t, objs, objs, opts, 4)
		assertExact(t, got, objs, objs, 5, vector.L2)
	}
}

func TestPGBJNearestFirstOrderHelps(t *testing.T) {
	objs := dataset.Forest(2000, 21)
	opts := defaultOpts()
	opts.NumPivots = 64
	_, ordered := runPGBJ(t, objs, objs, opts, 4)
	opts.DisableNearestFirstOrder = true
	_, unordered := runPGBJ(t, objs, objs, opts, 4)
	// Visiting near partitions first tightens θ sooner: the heuristic must
	// not cost pairs, and on clustered data it should save some.
	if ordered.pairs > unordered.pairs {
		t.Fatalf("nearest-first order computed MORE pairs: %d vs %d", ordered.pairs, unordered.pairs)
	}
}

func TestPGBJPruningReducesPairs(t *testing.T) {
	objs := dataset.Forest(2000, 15)
	opts := defaultOpts()
	opts.NumPivots = 64
	_, pruned := runPGBJ(t, objs, objs, opts, 4)
	opts.DisableHyperplanePruning = true
	opts.DisableWindowPruning = true
	_, unpruned := runPGBJ(t, objs, objs, opts, 4)
	if pruned.pairs >= unpruned.pairs {
		t.Fatalf("pruning did not reduce pairs: %d vs %d", pruned.pairs, unpruned.pairs)
	}
	// The headline claim: selectivity far below the cross product.
	if pruned.selectivy > 0.5 {
		t.Fatalf("selectivity %.3f suspiciously close to a full cross product", pruned.selectivy)
	}
}

func TestPGBJReplicationBelowBroadcast(t *testing.T) {
	objs := dataset.Forest(1500, 16)
	opts := defaultOpts()
	opts.NumPivots = 48
	nodes := 6
	_, rep := runPGBJ(t, objs, objs, opts, nodes)
	// Broadcast would replicate every S object to all nodes.
	if rep.replicas >= int64(len(objs)*nodes) {
		t.Fatalf("replication %d not below broadcast %d", rep.replicas, len(objs)*nodes)
	}
}

func TestPGBJPhaseReport(t *testing.T) {
	objs := dataset.Uniform(200, 2, 100, 17)
	_, rep := runPGBJ(t, objs, objs, defaultOpts(), 2)
	if rep.phases != 5 { // pivot selection, partitioning, merging, grouping, join
		t.Fatalf("got %d phases, want 5", rep.phases)
	}
}

func TestPGBJOptionValidation(t *testing.T) {
	fs := dfs.New(0)
	cluster := newCluster(t, fs, 2)
	if _, err := Run(cluster, "R", "S", "out", Options{K: 0, NumPivots: 4}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(cluster, "R", "S", "out", Options{K: 3, NumPivots: 0}); err == nil {
		t.Error("NumPivots=0 accepted")
	}
	if _, err := Run(cluster, "missing", "S", "out", Options{K: 3, NumPivots: 4}); err == nil {
		t.Error("missing input accepted")
	}
}

func TestPGBJFewerPivotsThanGroupsFails(t *testing.T) {
	objs := dataset.Uniform(100, 2, 100, 18)
	fs := dfs.New(0)
	cluster := newCluster(t, fs, 8)
	dataset.ToDFS(fs, "R", objs, codec.FromR)
	dataset.ToDFS(fs, "S", objs, codec.FromS)
	opts := defaultOpts()
	opts.NumPivots = 4
	opts.NumGroups = 8 // explicitly more groups than pivots: must error
	if _, err := Run(cluster, "R", "S", "out", opts); err == nil {
		t.Fatal("expected grouping error when pivots < explicit groups")
	}
}

func TestPGBJTinyInputAutoClampsGroups(t *testing.T) {
	// A 3-object dataset on an 8-node cluster must still work with
	// default options: the derived group count clamps to the pivot count.
	objs := dataset.Uniform(3, 2, 100, 19)
	fs := dfs.New(0)
	cluster := newCluster(t, fs, 8)
	dataset.ToDFS(fs, "R", objs, codec.FromR)
	dataset.ToDFS(fs, "S", objs, codec.FromS)
	opts := defaultOpts()
	opts.NumPivots = 2
	opts.K = 2
	if _, err := Run(cluster, "R", "S", "out", opts); err != nil {
		t.Fatalf("tiny input failed: %v", err)
	}
}

func TestParseGroupStrategy(t *testing.T) {
	for s, want := range map[string]GroupStrategy{"geometric": Geometric, "geo": Geometric, "": Geometric, "greedy": Greedy, "gr": Greedy} {
		got, err := ParseGroupStrategy(s)
		if err != nil || got != want {
			t.Errorf("ParseGroupStrategy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseGroupStrategy("alphabetic"); err == nil {
		t.Error("unknown strategy accepted")
	}
	if Geometric.String() != "geometric" || Greedy.String() != "greedy" {
		t.Error("bad strings")
	}
	if GroupStrategy(7).String() != "GroupStrategy(7)" {
		t.Error("bad fallback string")
	}
}

// Run and RunPBJ consume their inputs: once job 1 has committed, R and S
// are gone from the store, in memory and on disk, and the job output is
// all that is left. A run that fails before job 1 leaves them in place.
func TestRunConsumesInputs(t *testing.T) {
	objs := dataset.Uniform(300, 2, 100, 21)
	for _, run := range []struct {
		name string
		fn   func(*mapreduce.Cluster, string, string, string, Options) (*stats.Report, error)
	}{{"Run", Run}, {"RunPBJ", RunPBJ}} {
		for _, disk := range []bool{false, true} {
			var fs dfs.Store = dfs.New(64)
			if disk {
				d, err := dfs.NewDisk(t.TempDir(), 64)
				if err != nil {
					t.Fatal(err)
				}
				fs = d
			}
			cluster := newCluster(t, fs, 4)
			dataset.ToDFS(fs, "R", objs, codec.FromR)
			dataset.ToDFS(fs, "S", objs, codec.FromS)
			if _, err := run.fn(cluster, "R", "S", "out", Options{K: 0, NumPivots: 8}); err == nil {
				t.Fatalf("%s: K = 0 accepted", run.name)
			}
			if got := fs.List(); !reflect.DeepEqual(got, []string{"R", "S"}) {
				t.Errorf("%s (disk %v): a failed run left files %v, want R and S", run.name, disk, got)
			}
			if _, err := run.fn(cluster, "R", "S", "out", Options{K: 3, NumPivots: 8, Seed: 1}); err != nil {
				t.Fatal(err)
			}
			if got := fs.List(); !reflect.DeepEqual(got, []string{"out"}) {
				t.Errorf("%s (disk %v): files %v after the run, want only out", run.name, disk, got)
			}
		}
	}
}
