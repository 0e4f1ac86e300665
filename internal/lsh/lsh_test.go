package lsh

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/naive"
	"knnjoin/internal/vector"
	"knnjoin/internal/zknn"
)

func runLSH(t testing.TB, rObjs, sObjs []codec.Object, opts Options, nodes int) ([]codec.Result, int64) {
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
	return got, rep.Pairs
}

func TestShapeAndValidity(t *testing.T) {
	objs := dataset.Uniform(800, 3, 100, 1)
	got, _ := runLSH(t, objs, objs, Options{K: 5, Seed: 1}, 4)
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
		if len(res.Neighbors) > 5 {
			t.Fatalf("r %d has %d neighbors, want ≤ 5", res.RID, len(res.Neighbors))
		}
		prev := -1.0
		seen := make(map[int64]bool)
		for _, nb := range res.Neighbors {
			if nb.Dist < prev {
				t.Fatalf("r %d neighbors not ascending", res.RID)
			}
			prev = nb.Dist
			if seen[nb.ID] {
				t.Fatalf("r %d repeats neighbor %d", res.RID, nb.ID)
			}
			seen[nb.ID] = true
			// Approximation affects which neighbors are found, never the
			// reported distances: each must be the true distance to a real
			// S object.
			want := vector.Dist(byID[res.RID], byID[nb.ID])
			if math.Abs(nb.Dist-want) > 1e-9 {
				t.Fatalf("r %d → s %d: reported %v, true %v", res.RID, nb.ID, nb.Dist, want)
			}
		}
	}
}

func TestRecallOnUniformData(t *testing.T) {
	objs := dataset.Uniform(2000, 3, 100, 2)
	exact, _ := naive.BruteForce(objs, objs, 10, vector.L2)
	approx, _ := runLSH(t, objs, objs, Options{K: 10, Tables: 8, Hashes: 2, Seed: 3}, 4)
	if r := zknn.Recall(approx, exact); r < 0.8 {
		t.Fatalf("recall with 8 tables = %.3f, want ≥ 0.8", r)
	}
}

func TestRecallImprovesWithTables(t *testing.T) {
	objs := dataset.OSM(2500, 4)
	exact, _ := naive.BruteForce(objs, objs, 10, vector.L2)
	oneRes, _ := runLSH(t, objs, objs, Options{K: 10, Tables: 1, Hashes: 3, Seed: 5}, 4)
	eightRes, _ := runLSH(t, objs, objs, Options{K: 10, Tables: 8, Hashes: 3, Seed: 5}, 4)
	one, eight := zknn.Recall(oneRes, exact), zknn.Recall(eightRes, exact)
	if eight < one {
		t.Fatalf("recall fell with more tables: 1 table %.3f vs 8 tables %.3f", one, eight)
	}
	if eight < 0.8 {
		t.Fatalf("recall with 8 tables = %.3f, want ≥ 0.8", eight)
	}
}

func TestStricterSignaturesCheaper(t *testing.T) {
	objs := dataset.Uniform(2000, 3, 100, 6)
	_, loosePairs := runLSH(t, objs, objs, Options{K: 10, Tables: 2, Hashes: 1, Seed: 7}, 4)
	_, strictPairs := runLSH(t, objs, objs, Options{K: 10, Tables: 2, Hashes: 6, Seed: 7}, 4)
	if strictPairs >= loosePairs {
		t.Fatalf("more hashes per table did not shrink buckets: m=1 %d pairs vs m=6 %d", loosePairs, strictPairs)
	}
}

func TestCheaperThanExactCross(t *testing.T) {
	objs := dataset.Uniform(3000, 3, 100, 8)
	_, pairs := runLSH(t, objs, objs, Options{K: 10, Seed: 9}, 4)
	cross := int64(len(objs)) * int64(len(objs))
	if pairs >= cross/4 {
		t.Fatalf("lsh computed %d pairs — not cheap vs %d cross product", pairs, cross)
	}
}

func TestKLargerThanS(t *testing.T) {
	rObjs := dataset.Uniform(50, 2, 100, 12)
	sObjs := dataset.Uniform(4, 2, 100, 13)
	got, _ := runLSH(t, rObjs, sObjs, Options{K: 10, Tables: 8, Hashes: 1, BucketWidth: 1000, Seed: 1}, 2)
	if len(got) != len(rObjs) {
		t.Fatalf("rows = %d, want %d", len(got), len(rObjs))
	}
	for _, res := range got {
		if len(res.Neighbors) > 4 {
			t.Fatalf("r %d: %d neighbors, want ≤ 4", res.RID, len(res.Neighbors))
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	objs := dataset.Uniform(600, 3, 100, 14)
	a, _ := runLSH(t, objs, objs, Options{K: 4, Seed: 20}, 4)
	b, _ := runLSH(t, objs, objs, Options{K: 4, Seed: 20}, 4)
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

func TestValidation(t *testing.T) {
	fs := dfs.New(0)
	cluster := mapreduce.NewCluster(fs, 2)
	if _, err := Run(cluster, "R", "S", "out", Options{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Run(cluster, "R", "S", "out", Options{K: 3, BucketWidth: -1}); err == nil {
		t.Error("negative width accepted")
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

// Property: a point always lands in exactly the same bucket as itself,
// and the bucket key embeds the table index — the two facts the join's
// correctness-of-collision argument rests on.
func TestSignatureDeterministicQuick(t *testing.T) {
	tbls := newTables(rand.New(rand.NewSource(1)), 2, 4, 3, 10)
	f := func(x, y, z float64) bool {
		for _, v := range []*float64{&x, &y, &z} {
			if math.IsNaN(*v) || math.IsInf(*v, 0) {
				*v = 0
			}
			*v = math.Mod(*v, 1e6)
		}
		p := vector.Point{x, y, z}
		s1 := tbls[0].signature(nil, p, 10)
		s2 := tbls[0].signature(nil, p, 10)
		k0 := bucketKey(0, s1)
		k1 := bucketKey(1, tbls[1].signature(nil, p, 10))
		return bytes.Equal(bucketKey(0, s2), k0) && !bytes.Equal(k0, k1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: two points farther apart than m·w·√dim in every projection
// cannot share a bucket; nearby duplicates always do. We check the
// always-collide half, which is deterministic: identical points share
// every table's bucket.
func TestIdenticalPointsCollideQuick(t *testing.T) {
	tbls := newTables(rand.New(rand.NewSource(2)), 4, 4, 2, 5)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			x, y = 1, 2
		}
		p := vector.Point{math.Mod(x, 1e6), math.Mod(y, 1e6)}
		q := p.Clone()
		for ti := range tbls {
			if !bytes.Equal(bucketKey(ti, tbls[ti].signature(nil, p, 5)), bucketKey(ti, tbls[ti].signature(nil, q, 5))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEstimateWidthDegenerate(t *testing.T) {
	same := make([]codec.Object, 10)
	for i := range same {
		same[i] = codec.Object{ID: int64(i), Point: vector.Point{1, 1}}
	}
	if w := estimateWidth(same, 3); w != 1 {
		t.Fatalf("degenerate width = %v, want fallback 1", w)
	}
	if w := estimateWidth(same[:1], 3); w != 1 {
		t.Fatalf("single-object width = %v, want fallback 1", w)
	}
	spread := dataset.Uniform(100, 2, 50, 3)
	if w := estimateWidth(spread, 3); w <= 0 {
		t.Fatalf("width on spread data = %v, want positive", w)
	}
}

func BenchmarkLSH(b *testing.B) {
	objs := dataset.Uniform(20000, 4, 100, 1)
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
