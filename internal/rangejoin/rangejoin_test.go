package rangejoin

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/pgbj"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
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

func runRange(t testing.TB, rObjs, sObjs []codec.Object, opts Options, nodes int) ([]codec.Result, *stats.Report) {
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
	return got, rep
}

// sameResults asserts got matches want exactly: same rows, same neighbor
// IDs and distances. Range joins have no ties ambiguity — the result set
// is fully determined by the radius.
func sameResults(t *testing.T, got, want []codec.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d result rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].RID != want[i].RID {
			t.Fatalf("row %d: RID %d, want %d", i, got[i].RID, want[i].RID)
		}
		if len(got[i].Neighbors) != len(want[i].Neighbors) {
			t.Fatalf("r %d: %d neighbors, want %d", want[i].RID, len(got[i].Neighbors), len(want[i].Neighbors))
		}
		for j := range want[i].Neighbors {
			g, w := got[i].Neighbors[j], want[i].Neighbors[j]
			if g.ID != w.ID || math.Abs(g.Dist-w.Dist) > 1e-9 {
				t.Fatalf("r %d neighbor %d: (%d, %v), want (%d, %v)", want[i].RID, j, g.ID, g.Dist, w.ID, w.Dist)
			}
		}
	}
}

func TestExactVsBruteForce(t *testing.T) {
	objs := dataset.Uniform(1200, 3, 100, 1)
	for _, radius := range []float64{3, 8, 20} {
		want := BruteForce(objs, objs, radius, vector.L2)
		got, _ := runRange(t, objs, objs, Options{Radius: radius, NumPivots: 40, Seed: 1}, 4)
		sameResults(t, got, want)
	}
}

func TestExactOnSkewedData(t *testing.T) {
	objs := dataset.OSM(2000, 2)
	want := BruteForce(objs, objs, 0.5, vector.L2)
	got, rep := runRange(t, objs, objs, Options{Radius: 0.5, NumPivots: 60, Seed: 3}, 8)
	sameResults(t, got, want)
	// The routing must beat broadcast: fewer than |S|·groups replicas.
	if rep.ReplicasS >= int64(len(objs))*8 {
		t.Fatalf("replication %d is no better than broadcast", rep.ReplicasS)
	}
}

func TestExactDistinctRAndS(t *testing.T) {
	rObjs := dataset.Uniform(500, 4, 100, 4)
	sObjs := dataset.Uniform(800, 4, 100, 5)
	want := BruteForce(rObjs, sObjs, 15, vector.L2)
	got, _ := runRange(t, rObjs, sObjs, Options{Radius: 15, NumPivots: 30, Seed: 6}, 4)
	sameResults(t, got, want)
}

func TestExactOtherMetrics(t *testing.T) {
	objs := dataset.Uniform(600, 3, 100, 7)
	for _, m := range []vector.Metric{vector.L1, vector.LInf} {
		want := BruteForce(objs, objs, 10, m)
		got, _ := runRange(t, objs, objs, Options{Radius: 10, Metric: m, NumPivots: 25, Seed: 8}, 4)
		sameResults(t, got, want)
	}
}

func TestRadiusZeroFindsDuplicatesOnly(t *testing.T) {
	objs := dataset.Uniform(300, 2, 100, 9)
	objs = append(objs, codec.Object{ID: 9999, Point: objs[0].Point.Clone()})
	got, _ := runRange(t, objs, objs, Options{Radius: 0, NumPivots: 20, Seed: 10}, 4)
	want := BruteForce(objs, objs, 0, vector.L2)
	sameResults(t, got, want)
	// Every object matches itself; the planted duplicate pair matches
	// both ways.
	if len(got) != len(objs) {
		t.Fatalf("rows = %d, want %d", len(got), len(objs))
	}
	byID := make(map[int64]codec.Result)
	for _, res := range got {
		byID[res.RID] = res
	}
	if len(byID[9999].Neighbors) != 2 || len(byID[objs[0].ID].Neighbors) != 2 {
		t.Fatalf("duplicate pair not cross-matched: %+v / %+v", byID[9999], byID[objs[0].ID])
	}
}

func TestHugeRadiusIsCrossProduct(t *testing.T) {
	objs := dataset.Uniform(150, 2, 100, 11)
	got, _ := runRange(t, objs, objs, Options{Radius: 1e9, NumPivots: 10, Seed: 12}, 4)
	if len(got) != len(objs) {
		t.Fatalf("rows = %d, want %d", len(got), len(objs))
	}
	for _, res := range got {
		if len(res.Neighbors) != len(objs) {
			t.Fatalf("r %d: %d neighbors, want all %d", res.RID, len(res.Neighbors), len(objs))
		}
	}
}

func TestPruningCutsWork(t *testing.T) {
	objs := dataset.OSM(3000, 13)
	_, rep := runRange(t, objs, objs, Options{Radius: 0.2, NumPivots: 80, Seed: 14}, 8)
	cross := int64(len(objs)) * int64(len(objs))
	if rep.Pairs >= cross/4 {
		t.Fatalf("range join computed %d of %d pairs — pruning ineffective", rep.Pairs, cross)
	}
}

func TestValidation(t *testing.T) {
	fs := dfs.New(0)
	cluster := newCluster(t, fs, 2)
	if _, err := Run(cluster, "R", "S", "out", Options{Radius: -1, NumPivots: 4}); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := Run(cluster, "R", "S", "out", Options{Radius: math.NaN(), NumPivots: 4}); err == nil {
		t.Error("NaN radius accepted")
	}
	if _, err := Run(cluster, "R", "S", "out", Options{Radius: 1}); err == nil {
		t.Error("zero pivots accepted")
	}
	if _, err := Run(cluster, "missing", "S", "out", Options{Radius: 1, NumPivots: 4}); err == nil {
		t.Error("missing input accepted")
	}
	fs.Write("R", nil)
	fs.Write("S", nil)
	if _, err := Run(cluster, "R", "S", "out", Options{Radius: 1, NumPivots: 4}); err == nil {
		t.Error("empty input accepted")
	}
}

// Property: the distributed range join agrees with brute force across
// random shapes — radii, dimensions, node counts.
func TestAgreementQuick(t *testing.T) {
	f := func(seed int64, dimRaw, nodesRaw, radRaw uint8) bool {
		dim := int(dimRaw)%4 + 1
		nodes := int(nodesRaw)%5 + 1
		radius := float64(radRaw%100) + 1
		objs := dataset.Uniform(150, dim, 100, seed)
		want := BruteForce(objs, objs, radius, vector.L2)
		got, _ := runRangeQuiet(objs, objs, Options{Radius: radius, NumPivots: 12, Seed: seed}, nodes)
		if got == nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].RID != want[i].RID || len(got[i].Neighbors) != len(want[i].Neighbors) {
				return false
			}
			for j := range want[i].Neighbors {
				if got[i].Neighbors[j].ID != want[i].Neighbors[j].ID {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// runRangeQuiet is runRange without the testing.TB plumbing, for
// testing/quick properties.
func runRangeQuiet(rObjs, sObjs []codec.Object, opts Options, nodes int) ([]codec.Result, error) {
	fs := dfs.New(256)
	cluster, err := mapreduce.NewCluster(fs, nodes, mapreduce.Config{})
	if err != nil {
		return nil, err
	}
	dataset.ToDFS(fs, "R", rObjs, codec.FromR)
	dataset.ToDFS(fs, "S", sObjs, codec.FromS)
	if _, err := Run(cluster, "R", "S", "out", opts); err != nil {
		return nil, err
	}
	return driver.ReadResults(fs, "out")
}

func BenchmarkRangeJoin(b *testing.B) {
	objs := dataset.OSM(20000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := dfs.New(0)
		cluster := newCluster(b, fs, 8)
		dataset.ToDFS(fs, "R", objs, codec.FromR)
		dataset.ToDFS(fs, "S", objs, codec.FromS)
		if _, err := Run(cluster, "R", "S", "out", Options{Radius: 0.1, NumPivots: 200, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Run consumes its inputs like pgbj.Run: once job 1 has committed, R
// and S are gone and the job output is all that is left.
func TestRunConsumesInputs(t *testing.T) {
	objs := dataset.Uniform(300, 2, 100, 22)
	fs := dfs.New(64)
	cluster := newCluster(t, fs, 4)
	dataset.ToDFS(fs, "R", objs, codec.FromR)
	dataset.ToDFS(fs, "S", objs, codec.FromS)
	if _, err := Run(cluster, "R", "S", "out", Options{Radius: 5, NumPivots: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if got := fs.List(); len(got) != 1 || got[0] != "out" {
		t.Errorf("files %v after the run, want only out", got)
	}
}

// serialSummary is the index merging the range join ran before it
// shared PGBJ's: one builder fed every record of the partitioned file
// in file order. It stays as the oracle of the shared step, which
// builds one summary per split on a bounded pool and merges them.
func serialSummary(t *testing.T, fs dfs.Store, partFile string, partitions, k int) *voronoi.Summary {
	t.Helper()
	tagged, err := dataset.FromDFS(fs, partFile)
	if err != nil {
		t.Fatal(err)
	}
	b := voronoi.NewSummaryBuilder(partitions, k)
	for _, tg := range tagged {
		b.Add(tg)
	}
	return b.Finalize()
}

// The shared job-1 step's summary equals the serial build on inputs
// full of tied pivot distances — a pile of duplicates at six points and
// an integer grid — at the range join's k = 1 and at a kNN k: counts, L
// and U are integer sums, minima and maxima, and KDists keep distances
// only, so the order in which split builders merge cannot show.
func TestPartitionSummaryMatchesSerialBuild(t *testing.T) {
	var pile, grid []codec.Object
	spots := []vector.Point{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {3, 4, 0}, {0, 0, 5}, {1, 1, 1}}
	for i := 0; i < 900; i++ {
		pile = append(pile, codec.Object{ID: int64(i), Point: spots[i%len(spots)].Clone()})
	}
	for x := 0; x < 9; x++ {
		for y := 0; y < 9; y++ {
			for z := 0; z < 9; z++ {
				grid = append(grid, codec.Object{ID: int64(len(grid)), Point: vector.Point{float64(x), float64(y), float64(z)}})
			}
		}
	}
	for name, objs := range map[string][]codec.Object{"duplicate pile": pile, "integer grid": grid} {
		for _, k := range []int{1, 10} {
			fs := dfs.New(64)
			cluster := newCluster(t, fs, 4)
			dataset.ToDFS(fs, "R", objs, codec.FromR)
			dataset.ToDFS(fs, "S", objs, codec.FromS)
			part, err := pgbj.Partition(cluster, &stats.Report{}, "range-partition", "R", "S", "out",
				pgbj.Options{K: k, NumPivots: 12, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			splits, err := fs.Splits(part.File)
			if err != nil || len(splits) < 8 {
				t.Fatalf("%s: %d splits (%v), want many", name, len(splits), err)
			}
			want := serialSummary(t, fs, part.File, part.Partitioner.NumPartitions(), k)
			if !reflect.DeepEqual(part.Summary, want) {
				t.Errorf("%s, k=%d: the shared step's summary differs from the serial build", name, k)
			}
		}
	}
}
