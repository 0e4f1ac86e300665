package theta

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
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
)

func runTheta(t testing.TB, rObjs, sObjs []codec.Object, opts Options, nodes int) ([]codec.Result, *stats.Report) {
	t.Helper()
	fs := dfs.New(256)
	cluster := mapreduce.NewCluster(fs, nodes)
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

func sameResults(t *testing.T, got, want []codec.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].RID != want[i].RID {
			t.Fatalf("row %d: RID %d, want %d", i, got[i].RID, want[i].RID)
		}
		if len(got[i].Neighbors) != len(want[i].Neighbors) {
			t.Fatalf("r %d: %d neighbors, want %d", want[i].RID, len(got[i].Neighbors), len(want[i].Neighbors))
		}
		for j := range want[i].Neighbors {
			if math.Abs(got[i].Neighbors[j].Dist-want[i].Neighbors[j].Dist) > 1e-9 {
				t.Fatalf("r %d neighbor %d: dist %v, want %v",
					want[i].RID, j, got[i].Neighbors[j].Dist, want[i].Neighbors[j].Dist)
			}
		}
	}
}

func TestExactVsBruteForce(t *testing.T) {
	objs := dataset.Forest(1000, 1)
	for _, k := range []int{1, 10} {
		for _, nodes := range []int{1, 4, 7, 16} {
			want, _ := naive.BruteForce(objs, objs, k, vector.L2)
			got, _ := runTheta(t, objs, objs, Options{K: k, Seed: 1}, nodes)
			sameResults(t, got, want)
		}
	}
}

func TestExactAsymmetricSizes(t *testing.T) {
	rObjs := dataset.Uniform(200, 3, 100, 2)
	sObjs := dataset.Uniform(2000, 3, 100, 3)
	want, _ := naive.BruteForce(rObjs, sObjs, 8, vector.L2)
	got, rep := runTheta(t, rObjs, sObjs, Options{K: 8, Seed: 4}, 8)
	sameResults(t, got, want)
	// With |S| = 10|R| the balanced tiling should use more columns than
	// rows so the big side is replicated less.
	rows, cols := Tiling(len(rObjs), len(sObjs), 8)
	if rows >= cols {
		t.Fatalf("tiling %dx%d does not favor the larger S", rows, cols)
	}
	if rep.ReplicasS != int64(rows)*int64(len(sObjs)) {
		t.Fatalf("replicas = %d, want %d", rep.ReplicasS, int64(rows)*int64(len(sObjs)))
	}
}

func TestExactOtherMetric(t *testing.T) {
	objs := dataset.Uniform(600, 4, 100, 5)
	want, _ := naive.BruteForce(objs, objs, 5, vector.L1)
	got, _ := runTheta(t, objs, objs, Options{K: 5, Metric: vector.L1, Seed: 6}, 6)
	sameResults(t, got, want)
}

func TestFixedTiling(t *testing.T) {
	objs := dataset.Uniform(400, 3, 100, 7)
	want, _ := naive.BruteForce(objs, objs, 4, vector.L2)
	got, _ := runTheta(t, objs, objs, Options{K: 4, Rows: 3, Cols: 2, Seed: 8}, 6)
	sameResults(t, got, want)
}

// Adversarial ID distributions are the framework's selling point: IDs
// that all collide under mod-based blocking must still produce balanced
// regions and exact results.
func TestSkewedIDsStayBalanced(t *testing.T) {
	objs := dataset.Uniform(1200, 3, 100, 9)
	for i := range objs {
		objs[i].ID *= 64 // every ID ≡ 0 mod 64: ID-hash blocking would collapse
	}
	want, _ := naive.BruteForce(objs, objs, 6, vector.L2)
	got, _ := runTheta(t, objs, objs, Options{K: 6, Seed: 10}, 16)
	sameResults(t, got, want)

	// Row/column occupancy: no cell of the assignment may be empty and
	// none may hold more than 3× its fair share.
	rows, cols := Tiling(len(objs), len(objs), 16)
	rowCount := make([]int, rows)
	colCount := make([]int, cols)
	for _, o := range objs {
		rowCount[assign(o.ID, 10, rows)]++
		colCount[assign(o.ID, 11, cols)]++
	}
	for _, counts := range [][]int{rowCount, colCount} {
		fair := len(objs) / len(counts)
		for i, c := range counts {
			if c == 0 || c > 3*fair {
				t.Fatalf("cell %d holds %d of ~%d objects — skewed", i, c, fair)
			}
		}
	}
}

func TestShuffleMatchesTiling(t *testing.T) {
	objs := dataset.Uniform(500, 3, 100, 12)
	nodes := 9
	_, rep := runTheta(t, objs, objs, Options{K: 5, Seed: 13}, nodes)
	rows, cols := Tiling(len(objs), len(objs), nodes)
	// Region-join shuffle records: |R|·cols + |S|·rows (merge job adds
	// its own records on top).
	wantAtLeast := int64(len(objs))*int64(cols) + int64(len(objs))*int64(rows)
	if rep.ShuffleRecords < wantAtLeast {
		t.Fatalf("shuffle records %d < region-join minimum %d", rep.ShuffleRecords, wantAtLeast)
	}
}

func TestTiling(t *testing.T) {
	cases := []struct {
		r, s, n    int
		rows, cols int
	}{
		{100, 100, 16, 4, 4},
		{100, 100, 1, 1, 1},
		{100, 1000, 16, 1, 16},
		{1000, 100, 16, 13, 1},
		{100, 100, 0, 1, 1},
		{0, 100, 8, 1, 1},
	}
	for _, c := range cases {
		rows, cols := Tiling(c.r, c.s, c.n)
		if rows != c.rows || cols != c.cols {
			t.Errorf("Tiling(%d, %d, %d) = %dx%d, want %dx%d", c.r, c.s, c.n, rows, cols, c.rows, c.cols)
		}
		if rows*cols > c.n && c.n >= 1 {
			t.Errorf("Tiling(%d, %d, %d) = %dx%d exceeds %d reducers", c.r, c.s, c.n, rows, cols, c.n)
		}
	}
}

// Property: assignments stay in range and are deterministic for any ID,
// including negative ones.
func TestAssignQuick(t *testing.T) {
	f := func(id, seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		a := assign(id, seed, n)
		return a >= 0 && a < n && a == assign(id, seed, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestValidation(t *testing.T) {
	fs := dfs.New(0)
	cluster := mapreduce.NewCluster(fs, 2)
	if _, err := Run(cluster, "R", "S", "out", Options{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(cluster, "R", "S", "out", Options{K: 3, Rows: -1}); err == nil {
		t.Error("negative tiling accepted")
	}
	if _, err := Run(cluster, "missing", "S", "out", Options{K: 3}); err == nil {
		t.Error("missing input accepted")
	}
}

func BenchmarkTheta(b *testing.B) {
	objs := dataset.Uniform(5000, 4, 100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := dfs.New(0)
		cluster := mapreduce.NewCluster(fs, 8)
		dataset.ToDFS(fs, "R", objs, codec.FromR)
		dataset.ToDFS(fs, "S", objs, codec.FromS)
		if _, err := Run(cluster, "R", "S", "out", Options{K: 10, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
