package vindex

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/pivot"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

func bruteKNNDists(objs []codec.Object, q vector.Point, k int, m vector.Metric) []float64 {
	ds := make([]float64, len(objs))
	for i, o := range objs {
		ds[i] = m.Dist(q, o.Point)
	}
	sort.Float64s(ds)
	if k > len(ds) {
		k = len(ds)
	}
	return ds[:k]
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("empty build accepted")
	}
	objs := dataset.Uniform(50, 3, 100, 1)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tainted := append([]codec.Object(nil), objs...)
		tainted[20] = codec.Object{ID: 77, Point: vector.Point{1, bad, 3}}
		_, err := Build(tainted, Options{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "object 77") || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("Build with %v = %v, want a non-finite-coordinate error naming object 77", bad, err)
		}
	}
	ragged := append([]codec.Object(nil), objs...)
	ragged[20] = codec.Object{ID: 78, Point: vector.Point{1, 2}}
	if _, err := Build(ragged, Options{Seed: 1}); err == nil || !strings.Contains(err.Error(), "object 78") {
		t.Errorf("Build over ragged dimensions = %v, want an error naming object 78", err)
	}
}

// buildSerial is Build as it was before it ran on every core — one
// Partition pass, a SummaryBuilder fed every object, the partitions
// sorted one after the other — kept as the reference the parallel build
// must reproduce byte for byte.
func buildSerial(t *testing.T, objs []codec.Object, opts Options) *Index {
	t.Helper()
	opts = opts.withDefaults(len(objs))
	pivots, err := pivot.Select(opts.PivotStrategy, objs, opts.NumPivots, pivot.Options{Metric: opts.Metric, Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	pp := voronoi.NewPartitioner(pivots, opts.Metric)
	parts := pp.Partition(objs, codec.FromS, nil)
	b := voronoi.NewSummaryBuilder(opts.NumPivots, opts.BoundK)
	for _, g := range parts {
		for _, o := range g {
			b.Add(o)
		}
		voronoi.SortByPivotDist(g)
	}
	blocks := make([]*vector.Block, len(parts))
	for j, part := range parts {
		if blocks[j], err = blockFromPart(part); err != nil {
			t.Fatal(err)
		}
	}
	return &Index{pp: pp, sum: b.Finalize(), blocks: blocks, size: len(objs), opts: opts}
}

// The index file is a function of (objects, options) alone: the same
// bytes under GOMAXPROCS 1 and 4, equal to the serial reference's —
// including empty cells (duplicate-heavy data with more pivots than
// distinct points) and partitions smaller than BoundK.
func TestBuildDeterministicAcrossGOMAXPROCS(t *testing.T) {
	piles := dataset.Uniform(40, 2, 10, 3)
	for i := 0; i < 5; i++ {
		piles = append(piles, piles[:40]...)
	}
	piles = dataset.Renumber(piles)
	for name, tc := range map[string]struct {
		objs []codec.Object
		opts Options
	}{
		"forest":     {dataset.Forest(6000, 2), Options{Seed: 5}},
		"osm-l1":     {dataset.OSM(5000, 4), Options{Seed: 2, Metric: vector.L1, BoundK: 4}},
		"duplicates": {piles, Options{Seed: 1, NumPivots: 60}},
	} {
		var want bytes.Buffer
		if err := buildSerial(t, tc.objs, tc.opts).Save(&want); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			ix, err := Build(tc.objs, tc.opts)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := ix.Save(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s: index built under GOMAXPROCS=%d differs from the serial reference (%d vs %d bytes)",
					name, procs, got.Len(), want.Len())
			}
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	objs := dataset.Forest(3000, 1)
	ix, err := Build(objs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		q := objs[rng.Intn(len(objs))].Point.Clone()
		for d := range q {
			q[d] += rng.NormFloat64() * 10
		}
		k := rng.Intn(15) + 1
		got := ix.KNN(q, k)
		want := bruteKNNDists(objs, q, k, vector.L2)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i].Dist-want[i]) > 1e-9 {
				t.Fatalf("trial %d pos %d: %v, want %v", trial, i, got[i].Dist, want[i])
			}
		}
	}
}

func TestKNNSkewedData(t *testing.T) {
	objs := dataset.OSM(4000, 3)
	ix, err := Build(objs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		q := vector.Point{rng.Float64()*360 - 180, rng.Float64()*170 - 85}
		got := ix.KNN(q, 8)
		want := bruteKNNDists(objs, q, 8, vector.L2)
		for i := range want {
			if math.Abs(got[i].Dist-want[i]) > 1e-9 {
				t.Fatalf("trial %d pos %d: %v, want %v", trial, i, got[i].Dist, want[i])
			}
		}
	}
}

func TestKNNAlternateMetrics(t *testing.T) {
	objs := dataset.Uniform(1500, 4, 100, 5)
	for _, m := range []vector.Metric{vector.L1, vector.LInf} {
		ix, err := Build(objs, Options{Metric: m, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		for trial := 0; trial < 25; trial++ {
			q := dataset.Uniform(1, 4, 100, rng.Int63())[0].Point
			got := ix.KNN(q, 5)
			want := bruteKNNDists(objs, q, 5, m)
			for i := range want {
				if math.Abs(got[i].Dist-want[i]) > 1e-9 {
					t.Fatalf("%v trial %d: %v, want %v", m, trial, got[i].Dist, want[i])
				}
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	objs := dataset.Uniform(20, 2, 10, 7)
	ix, err := Build(objs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.KNN(vector.Point{5, 5}, 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	for _, k := range []int{100, 1 << 40} {
		if got := ix.KNN(vector.Point{5, 5}, k); len(got) != 20 {
			t.Fatalf("k=%d > n returned %d", k, len(got))
		}
	}
	// k above BoundK still correct (starting bound falls back to +Inf).
	ixSmall, err := Build(objs, Options{Seed: 1, BoundK: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := ixSmall.KNN(vector.Point{5, 5}, 10)
	want := bruteKNNDists(objs, vector.Point{5, 5}, 10, vector.L2)
	for i := range want {
		if math.Abs(got[i].Dist-want[i]) > 1e-9 {
			t.Fatalf("pos %d: %v, want %v", i, got[i].Dist, want[i])
		}
	}
}

func TestRangeMatchesLinearScan(t *testing.T) {
	objs := dataset.Uniform(2000, 3, 100, 8)
	ix, err := Build(objs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		q := dataset.Uniform(1, 3, 100, rng.Int63())[0].Point
		radius := rng.Float64() * 30
		got := ix.Range(q, radius)
		var want []int64
		for _, o := range objs {
			if vector.Dist(q, o.Point) <= radius {
				want = append(want, o.ID)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i] {
				t.Fatalf("trial %d pos %d: %d, want %d", trial, i, got[i].ID, want[i])
			}
		}
	}
}

// The index must beat a linear scan on distance computations — otherwise
// the pruning is broken even if results are right.
func TestKNNPrunes(t *testing.T) {
	objs := dataset.OSM(20000, 10)
	ix, err := Build(objs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const queries = 20
	var total Stats
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < queries; i++ {
		q := objs[rng.Intn(len(objs))].Point
		_, st := ix.KNNWithStats(q, 10)
		if st.PartitionsScanned == 0 {
			t.Fatal("no partition scanned yet results expected")
		}
		total.Add(st)
	}
	perQuery := total.DistComputations / queries
	if perQuery > int64(len(objs))/2 {
		t.Fatalf("avg %d distances per query over %d objects — pruning ineffective", perQuery, len(objs))
	}
}

func TestNumPartitionsDefault(t *testing.T) {
	objs := dataset.Uniform(400, 2, 10, 12)
	ix, err := Build(objs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumPartitions() != 40 { // 2·√400
		t.Fatalf("NumPartitions = %d, want 40", ix.NumPartitions())
	}
	if ix.Len() != 400 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

// Property: index kNN distances equal brute force for arbitrary shapes.
func TestKNNCorrectQuick(t *testing.T) {
	f := func(seed int64, nRaw, kRaw, pRaw uint8) bool {
		n := int(nRaw)%150 + 1
		k := int(kRaw)%10 + 1
		objs := dataset.Uniform(n, 3, 100, seed)
		ix, err := Build(objs, Options{Seed: seed, NumPivots: int(pRaw)%n + 1})
		if err != nil {
			return false
		}
		q := dataset.Uniform(1, 3, 100, seed+1)[0].Point
		got := ix.KNN(q, k)
		want := bruteKNNDists(objs, q, k, vector.L2)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if math.Abs(got[i].Dist-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	objs := dataset.Forest(20000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(objs, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNN(b *testing.B) {
	objs := dataset.Forest(20000, 1)
	ix, err := Build(objs, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := objs[7].Point
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.KNN(q, 10)
	}
}
