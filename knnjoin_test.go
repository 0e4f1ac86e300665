package knnjoin

import (
	"math"
	"testing"
	"testing/quick"

	"knnjoin/internal/dataset"
)

func forest(n int, seed int64) []Object { return dataset.Forest(n, seed) }

// assertAgree checks two result sets match by distance multiset per row.
func assertAgree(t *testing.T, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].RID != want[i].RID {
			t.Fatalf("row %d RID %d, want %d", i, got[i].RID, want[i].RID)
		}
		if len(got[i].Neighbors) != len(want[i].Neighbors) {
			t.Fatalf("r %d: %d neighbors, want %d", got[i].RID, len(got[i].Neighbors), len(want[i].Neighbors))
		}
		for j := range want[i].Neighbors {
			if math.Abs(got[i].Neighbors[j].Dist-want[i].Neighbors[j].Dist) > 1e-9 {
				t.Fatalf("r %d nb %d dist %v, want %v", got[i].RID, j,
					got[i].Neighbors[j].Dist, want[i].Neighbors[j].Dist)
			}
		}
	}
}

// The headline integration test: all five algorithms agree on the same
// data.
func TestAllAlgorithmsAgree(t *testing.T) {
	objs := forest(600, 1)
	want, _, err := Join(objs, objs, Options{K: 5, Algorithm: BruteForce})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{PGBJ, PBJ, HBRJ, Broadcast} {
		got, st, err := Join(objs, objs, Options{K: 5, Algorithm: alg, Nodes: 9, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		assertAgree(t, got, want)
		if st.Pairs <= 0 || st.RSize != 600 || st.SSize != 600 || st.Dims != 10 {
			t.Fatalf("%v: implausible stats %+v", alg, st)
		}
	}

	// A k of 2⁴⁰ asks for more neighbours than S holds: every algorithm
	// returns all of S for every r, sizing its heaps by |S|, not by k,
	// and Stats still reports the k asked for. Two nodes give ZKNN two
	// curve ranges, each of which also receives the other's S objects,
	// so the approximate join sees all of S too.
	const hugeK = 1 << 40
	small := forest(50, 2)
	for _, alg := range []Algorithm{PGBJ, PBJ, HBRJ, Broadcast, BruteForce, ZKNN, Auto} {
		got, st, err := SelfJoin(small, Options{K: hugeK, Algorithm: alg, Nodes: 2, Seed: 1})
		if err != nil {
			t.Fatalf("%v at k=2^40: %v", alg, err)
		}
		if len(got) != len(small) || st.K != hugeK {
			t.Fatalf("%v at k=2^40: %d rows, Stats.K %d", alg, len(got), st.K)
		}
		for _, r := range got {
			if len(r.Neighbors) != len(small) {
				t.Fatalf("%v at k=2^40: r %d has %d neighbours, want all %d", alg, r.RID, len(r.Neighbors), len(small))
			}
		}
	}
}

func TestZKNNApproximateButPlausible(t *testing.T) {
	objs := dataset.Uniform(1200, 3, 100, 20)
	exact, _, err := SelfJoin(objs, Options{K: 5, Algorithm: BruteForce})
	if err != nil {
		t.Fatal(err)
	}
	approx, st, err := SelfJoin(objs, Options{K: 5, Algorithm: ZKNN, Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Algorithm != "H-zkNNJ" {
		t.Fatalf("algorithm = %q", st.Algorithm)
	}
	if len(approx) != len(exact) {
		t.Fatalf("rows = %d, want %d", len(approx), len(exact))
	}
	// Recall must be high on regular data; exact equality is not required.
	hits, total := 0, 0
	for i := range exact {
		want := make(map[int64]bool)
		for _, nb := range exact[i].Neighbors {
			want[nb.ID] = true
		}
		for _, nb := range approx[i].Neighbors {
			total++
			if want[nb.ID] {
				hits++
			}
		}
	}
	if recall := float64(hits) / float64(total); recall < 0.85 {
		t.Fatalf("recall = %.3f, want ≥ 0.85", recall)
	}
	// ZKNN rejects non-Euclidean metrics explicitly.
	if _, _, err := SelfJoin(objs, Options{K: 5, Algorithm: ZKNN, Metric: L1}); err == nil {
		t.Fatal("ZKNN with L1 accepted")
	}
}

func TestClosestPairsAPI(t *testing.T) {
	r := dataset.Uniform(300, 3, 100, 22)
	s := dataset.Uniform(400, 3, 100, 23)
	pairs, st, err := ClosestPairs(r, s, PairOptions{K: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 15 {
		t.Fatalf("got %d pairs, want 15", len(pairs))
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Dist < pairs[i-1].Dist {
			t.Fatal("pairs not ascending")
		}
	}
	if st.Dims != 3 || st.RSize != 300 || st.SSize != 400 {
		t.Fatalf("implausible stats %+v", st)
	}

	// Self-join with both filters: no self pairs, one orientation only.
	selfPairs, _, err := ClosestPairs(r, r, PairOptions{K: 10, ExcludeSelf: true, Unordered: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range selfPairs {
		if p.RID >= p.SID {
			t.Fatalf("filters violated: %+v", p)
		}
	}

	if _, _, err := ClosestPairs(r, s, PairOptions{}); err == nil {
		t.Error("K=0 accepted")
	}
	if got, _, err := ClosestPairs(nil, s, PairOptions{K: 3}); err != nil || len(got) != 0 {
		t.Errorf("empty R: %v, %v", got, err)
	}
	bad := []Object{{ID: 0, Point: Point{1}}}
	if _, _, err := ClosestPairs(bad, s, PairOptions{K: 3}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestJoinAsymmetric(t *testing.T) {
	r := dataset.Uniform(200, 3, 100, 2)
	s := dataset.Uniform(300, 3, 100, 3)
	want, _, _ := Join(r, s, Options{K: 4, Algorithm: BruteForce})
	got, _, err := Join(r, s, Options{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertAgree(t, got, want)
}

func TestJoinValidation(t *testing.T) {
	objs := forest(10, 4)
	if _, _, err := Join(objs, objs, Options{}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, _, err := Join(objs, objs, Options{K: -1}); err == nil {
		t.Error("negative K accepted")
	}
	if _, _, err := Join(objs, objs, Options{K: 2, Algorithm: Algorithm(42)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestJoinRejectsMixedDimensions(t *testing.T) {
	r := []Object{{ID: 0, Point: Point{1, 2}}, {ID: 1, Point: Point{1, 2, 3}}}
	if _, _, err := Join(r, r[:1], Options{K: 1}); err == nil {
		t.Error("mixed dims in R accepted")
	}
	r2 := []Object{{ID: 0, Point: Point{1, 2}}}
	s2 := []Object{{ID: 1, Point: Point{1}}}
	if _, _, err := Join(r2, s2, Options{K: 1}); err == nil {
		t.Error("R/S dim mismatch accepted")
	}
}

func TestJoinDeterministicPerSeed(t *testing.T) {
	objs := dataset.OSM(300, 10)
	a, _, err := SelfJoin(objs, Options{K: 4, Seed: 9, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SelfJoin(objs, Options{K: 4, Seed: 9, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].RID != b[i].RID || len(a[i].Neighbors) != len(b[i].Neighbors) {
			t.Fatal("same seed produced different shapes")
		}
		for j := range a[i].Neighbors {
			if a[i].Neighbors[j] != b[i].Neighbors[j] {
				t.Fatalf("same seed produced different neighbors at r=%d", a[i].RID)
			}
		}
	}
}

func TestJoinEmptyR(t *testing.T) {
	s := forest(10, 5)
	got, st, err := Join(nil, s, Options{K: 3})
	if err != nil || len(got) != 0 || st == nil {
		t.Fatalf("empty R: got=%v st=%v err=%v", got, st, err)
	}
}

func TestJoinDefaultsApplied(t *testing.T) {
	objs := dataset.Uniform(100, 2, 10, 6)
	_, st, err := Join(objs, objs, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 4 {
		t.Fatalf("default Nodes = %d, want 4", st.Nodes)
	}
}

func TestSelfJoinNearestIsSelf(t *testing.T) {
	objs := dataset.Uniform(80, 2, 100, 7)
	got, _, err := SelfJoin(objs, Options{K: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range got {
		if res.Neighbors[0].Dist != 0 {
			t.Fatalf("r %d nearest dist %v, want 0", res.RID, res.Neighbors[0].Dist)
		}
	}
}

func TestExcludeSelf(t *testing.T) {
	objs := dataset.Uniform(80, 2, 100, 8)
	got, _, err := SelfJoin(objs, Options{K: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	got = ExcludeSelf(got)
	for _, res := range got {
		if len(res.Neighbors) != 3 {
			t.Fatalf("r %d has %d neighbors after ExcludeSelf, want 3", res.RID, len(res.Neighbors))
		}
		for _, nb := range res.Neighbors {
			if nb.ID == res.RID {
				t.Fatalf("r %d still contains itself", res.RID)
			}
		}
	}
}

func TestExcludeSelfNoMatch(t *testing.T) {
	rs := []Result{{RID: 1, Neighbors: []Neighbor{{ID: 2, Dist: 1}}}}
	got := ExcludeSelf(rs)
	if len(got[0].Neighbors) != 1 {
		t.Fatal("ExcludeSelf removed a non-self neighbor")
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]Algorithm{
		"pgbj": PGBJ, "": PGBJ, "PBJ": PBJ, "h-brj": HBRJ, "hbrj": HBRJ,
		"broadcast": Broadcast, "basic": Broadcast, "brute": BruteForce, "exact": BruteForce,
		"zknn": ZKNN, "auto": Auto,
	}
	for in, want := range cases {
		got, err := ParseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"quantum", "theta", "1-bucket-theta", "lsh", "rankreduce"} {
		if _, err := ParseAlgorithm(in); err == nil {
			t.Errorf("unknown algorithm %q accepted", in)
		}
	}
	for _, a := range []Algorithm{PGBJ, PBJ, HBRJ, Broadcast, BruteForce, ZKNN, Auto} {
		if a.String() == "" {
			t.Error("empty algorithm name")
		}
		back, err := ParseAlgorithm(a.String())
		if err != nil || back != a {
			t.Errorf("round trip %v → %q → %v, err %v", a, a.String(), back, err)
		}
	}
}

func TestJoinStatsMeaningful(t *testing.T) {
	objs := forest(1000, 9)
	_, st, err := SelfJoin(objs, Options{K: 10, Nodes: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Selectivity() <= 0 || st.Selectivity() > 1.01 {
		t.Fatalf("selectivity %v out of range", st.Selectivity())
	}
	if st.ShuffleBytes <= 0 || st.ReplicasS <= 0 {
		t.Fatalf("missing shuffle accounting: %+v", st)
	}
	if st.AvgReplication() < 1 {
		// Every S object must reach at least the reducer handling its own
		// cell's group, since distance 0 candidates live there.
		t.Fatalf("avg replication %v < 1", st.AvgReplication())
	}
	if got := st.TotalWall(); got <= 0 {
		t.Fatalf("no wall time recorded: %v", got)
	}
}

// Property: PGBJ agrees with brute force on random little workloads of
// every shape (dims, k, node counts).
func TestJoinAgreementQuick(t *testing.T) {
	f := func(seed int64, dimRaw, kRaw, nodesRaw uint8) bool {
		dim := int(dimRaw)%5 + 1
		k := int(kRaw)%7 + 1
		nodes := int(nodesRaw)%6 + 1
		objs := dataset.Uniform(120, dim, 100, seed)
		want, _, err := Join(objs, objs, Options{K: k, Algorithm: BruteForce})
		if err != nil {
			return false
		}
		got, _, err := Join(objs, objs, Options{K: k, Nodes: nodes, Seed: seed})
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].RID != want[i].RID || len(got[i].Neighbors) != len(want[i].Neighbors) {
				return false
			}
			for j := range want[i].Neighbors {
				if math.Abs(got[i].Neighbors[j].Dist-want[i].Neighbors[j].Dist) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
