package topk

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
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

func runTopK(t testing.TB, rObjs, sObjs []codec.Object, opts Options, nodes int) ([]Pair, *runView) {
	t.Helper()
	fs := dfs.New(256)
	cluster := newCluster(t, fs, nodes)
	dataset.ToDFS(fs, "R", rObjs, codec.FromR)
	dataset.ToDFS(fs, "S", sObjs, codec.FromS)
	pairs, rep, err := Run(cluster, "R", "S", "out", opts)
	if err != nil {
		t.Fatal(err)
	}
	return pairs, &runView{pairs: rep.Pairs, replicas: rep.ReplicasS}
}

type runView struct{ pairs, replicas int64 }

// samePairDistances asserts the two pair lists carry the same multiset of
// distances — the exactness contract (ties may legally swap IDs).
func samePairDistances(t *testing.T, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: got dist %v, want %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestExactVsBruteForce(t *testing.T) {
	rObjs := dataset.Uniform(900, 3, 100, 1)
	sObjs := dataset.Uniform(700, 3, 100, 2)
	for _, k := range []int{1, 5, 25} {
		opts := Options{K: k, Seed: 3}
		want, _, err := BruteForce(rObjs, sObjs, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runTopK(t, rObjs, sObjs, opts, 4)
		samePairDistances(t, got, want)
	}
}

func TestSelfJoinExcludeSelfUnordered(t *testing.T) {
	objs := dataset.OSM(1200, 4)
	opts := Options{K: 20, ExcludeSelf: true, Unordered: true, Seed: 5}
	want, _, err := BruteForce(objs, objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runTopK(t, objs, objs, opts, 6)
	samePairDistances(t, got, want)
	for _, p := range got {
		if p.RID >= p.SID {
			t.Fatalf("unordered violated: (%d, %d)", p.RID, p.SID)
		}
		if p.Dist < 0 {
			t.Fatalf("negative distance %v", p.Dist)
		}
	}
}

func TestSelfJoinWithoutExclusionFindsZeroPairs(t *testing.T) {
	objs := dataset.Uniform(300, 2, 100, 7)
	got, _ := runTopK(t, objs, objs, Options{K: 5, Seed: 7}, 3)
	for _, p := range got {
		if p.Dist != 0 || p.RID != p.SID {
			t.Fatalf("self-join top pairs must be self-pairs at distance 0, got %+v", p)
		}
	}
}

func TestAscendingOutput(t *testing.T) {
	objs := dataset.Forest(800, 9)
	got, _ := runTopK(t, objs, objs, Options{K: 30, ExcludeSelf: true, Seed: 9}, 4)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Dist < got[j].Dist }) {
		t.Fatal("output pairs not ascending by distance")
	}
}

func TestCheaperThanCross(t *testing.T) {
	rObjs := dataset.Uniform(3000, 3, 100, 11)
	sObjs := dataset.Uniform(3000, 3, 100, 12)
	_, st := runTopK(t, rObjs, sObjs, Options{K: 10, Seed: 13}, 4)
	cross := int64(len(rObjs)) * int64(len(sObjs))
	if st.pairs >= cross/4 {
		t.Fatalf("computed %d pairs — threshold pruning ineffective vs %d cross", st.pairs, cross)
	}
}

func TestKLargerThanData(t *testing.T) {
	rObjs := dataset.Uniform(6, 2, 100, 14)
	sObjs := dataset.Uniform(5, 2, 100, 15)
	opts := Options{K: 1000, Seed: 16}
	want, _, err := BruteForce(rObjs, sObjs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runTopK(t, rObjs, sObjs, opts, 4)
	if len(got) != len(rObjs)*len(sObjs) {
		t.Fatalf("got %d pairs, want the whole cross product %d", len(got), len(rObjs)*len(sObjs))
	}
	samePairDistances(t, got, want)
}

func TestSingleNode(t *testing.T) {
	objs := dataset.Uniform(400, 4, 100, 17)
	opts := Options{K: 15, ExcludeSelf: true, Seed: 18}
	want, _, err := BruteForce(objs, objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runTopK(t, objs, objs, opts, 1)
	samePairDistances(t, got, want)
}

func TestManyNodesFewObjects(t *testing.T) {
	objs := dataset.Uniform(40, 3, 100, 19)
	opts := Options{K: 8, ExcludeSelf: true, Seed: 20}
	want, _, err := BruteForce(objs, objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runTopK(t, objs, objs, opts, 16)
	samePairDistances(t, got, want)
}

func TestL1Metric(t *testing.T) {
	objs := dataset.Uniform(500, 3, 100, 21)
	opts := Options{K: 12, Metric: vector.L1, ExcludeSelf: true, Seed: 22}
	want, _, err := BruteForce(objs, objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runTopK(t, objs, objs, opts, 4)
	samePairDistances(t, got, want)
}

func TestValidation(t *testing.T) {
	fs := dfs.New(0)
	cluster := newCluster(t, fs, 2)
	if _, _, err := Run(cluster, "R", "S", "out", Options{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := Run(cluster, "missing", "S", "out", Options{K: 3}); err == nil {
		t.Error("missing input accepted")
	}
	fs.Write("R", nil)
	fs.Write("S", nil)
	if _, _, err := Run(cluster, "R", "S", "out", Options{K: 3}); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := BruteForce(nil, nil, Options{K: -1}); err == nil {
		t.Error("brute force accepted k=-1")
	}
}

func TestPairCodecRoundTrip(t *testing.T) {
	f := func(rid, sid int64, dist float64) bool {
		in := Pair{RID: rid, SID: sid, Dist: dist}
		out, err := DecodePair(EncodePair(in))
		if err != nil {
			return false
		}
		if math.IsNaN(dist) {
			return out.RID == rid && out.SID == sid && math.IsNaN(out.Dist)
		}
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if _, err := DecodePair([]byte{1, 2, 3}); err == nil {
		t.Error("truncated pair accepted")
	}
}

// Property: the pair heap keeps exactly the k smallest distances of any
// input stream.
func TestPairHeapQuick(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		h := newPairHeap(k)
		var ds []float64
		for i, d := range raw {
			if math.IsNaN(d) {
				continue
			}
			ds = append(ds, d)
			h.push(Pair{RID: int64(i), SID: int64(i), Dist: d})
		}
		sort.Float64s(ds)
		want := ds
		if len(want) > k {
			want = want[:k]
		}
		got := h.sorted()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Dist != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSlabOf(t *testing.T) {
	bs := []float64{10, 20, 30}
	cases := map[float64]int{-5: 0, 9.99: 0, 10: 0, 10.01: 1, 25: 2, 30: 2, 31: 3}
	for x, want := range cases {
		if got := slabOf(x, bs); got != want {
			t.Errorf("slabOf(%v) = %d, want %d", x, got, want)
		}
	}
	if got := slabOf(math.Inf(-1), bs); got != 0 {
		t.Errorf("slabOf(-inf) = %d", got)
	}
	if got := slabOf(math.Inf(1), bs); got != 3 {
		t.Errorf("slabOf(+inf) = %d", got)
	}
}

func TestSlabBoundariesDedup(t *testing.T) {
	objs := make([]codec.Object, 50)
	for i := range objs {
		objs[i] = codec.Object{ID: int64(i), Point: vector.Point{7}}
	}
	bs := slabBoundaries(objs, 0, 8)
	if len(bs) > 1 {
		t.Fatalf("constant axis produced %d boundaries, want ≤ 1", len(bs))
	}
	if slabBoundaries(objs, 0, 1) != nil {
		t.Fatal("n=1 must produce no boundaries")
	}
}

func TestMaxVarianceAxis(t *testing.T) {
	objs := []codec.Object{
		{ID: 0, Point: vector.Point{1, 100}},
		{ID: 1, Point: vector.Point{1.1, -100}},
		{ID: 2, Point: vector.Point{0.9, 50}},
	}
	if got := maxVarianceAxis(objs); got != 1 {
		t.Fatalf("maxVarianceAxis = %d, want 1", got)
	}
	if got := maxVarianceAxis(nil); got != 0 {
		t.Fatalf("empty sample axis = %d, want 0", got)
	}
}

func BenchmarkTopK(b *testing.B) {
	objs := dataset.Uniform(20000, 4, 100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := dfs.New(0)
		cluster := newCluster(b, fs, 8)
		dataset.ToDFS(fs, "R", objs, codec.FromR)
		dataset.ToDFS(fs, "S", objs, codec.FromS)
		if _, _, err := Run(cluster, "R", "S", "out", Options{K: 100, ExcludeSelf: true, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
