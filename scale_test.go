package knnjoin

// Large-scale correctness gates, skipped under -short: these runs take
// tens of seconds and exist to catch issues that only appear past toy
// sizes (bound tightness under deep recursion of the grouping, heap
// churn, shuffle framing at many-splits scale).

import (
	"math"
	"testing"

	"knnjoin/internal/dataset"
	"knnjoin/internal/rangejoin"
	"knnjoin/internal/topk"
	"knnjoin/internal/vector"
)

func TestLargeScalePGBJExact(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale verification in -short mode")
	}
	objs := dataset.Renumber(dataset.Expand(dataset.Forest(4000, 99), 5)) // 20K objects
	want, _, err := SelfJoin(objs, Options{K: 20, Algorithm: BruteForce})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := SelfJoin(objs, Options{K: 20, Nodes: 16, NumPivots: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].RID != want[i].RID {
			t.Fatalf("row %d RID %d, want %d", i, got[i].RID, want[i].RID)
		}
		for j := range want[i].Neighbors {
			if math.Abs(got[i].Neighbors[j].Dist-want[i].Neighbors[j].Dist) > 1e-9 {
				t.Fatalf("r %d nb %d: %v, want %v", got[i].RID, j,
					got[i].Neighbors[j].Dist, want[i].Neighbors[j].Dist)
			}
		}
	}
	// At this scale pruning must be strong, not just present.
	if sel := st.Selectivity(); sel > 0.25 {
		t.Fatalf("selectivity %.3f at 20K objects — pruning regressed", sel)
	}
}

func TestLargeScaleAllExactAlgorithmsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale verification in -short mode")
	}
	objs := dataset.OSM(15000, 100)
	base, _, err := SelfJoin(objs, Options{K: 10, Nodes: 9, Seed: 8}) // PGBJ
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{PBJ, HBRJ} {
		got, _, err := SelfJoin(objs, Options{K: 10, Algorithm: alg, Nodes: 9, Seed: 8})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for i := range base {
			if got[i].RID != base[i].RID {
				t.Fatalf("%v: row %d RID mismatch", alg, i)
			}
			for j := range base[i].Neighbors {
				if math.Abs(got[i].Neighbors[j].Dist-base[i].Neighbors[j].Dist) > 1e-9 {
					t.Fatalf("%v: r %d nb %d distance mismatch", alg, got[i].RID, j)
				}
			}
		}
	}
}

func TestLargeScaleRangeJoinExact(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale verification in -short mode")
	}
	objs := dataset.OSM(20000, 101)
	want := rangejoin.BruteForce(objs, objs, 0.3, vector.L2)
	got, st, err := RangeJoin(objs, objs, RangeOptions{Radius: 0.3, Nodes: 16, NumPivots: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	var wantPairs int64
	for i := range want {
		wantPairs += int64(len(want[i].Neighbors))
		if got[i].RID != want[i].RID || len(got[i].Neighbors) != len(want[i].Neighbors) {
			t.Fatalf("row %d mismatch: r=%d %d neighbors, want r=%d %d",
				i, got[i].RID, len(got[i].Neighbors), want[i].RID, len(want[i].Neighbors))
		}
	}
	if st.OutputPairs != wantPairs {
		t.Fatalf("output pairs %d, want %d", st.OutputPairs, wantPairs)
	}
	if sel := st.Selectivity(); sel > 0.25 {
		t.Fatalf("selectivity %.3f at 20K objects — range pruning regressed", sel)
	}
}

func TestLargeScaleClosestPairsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale verification in -short mode")
	}
	objs := dataset.Renumber(dataset.Expand(dataset.Forest(4000, 102), 5)) // 20K objects
	opts := PairOptions{K: 100, ExcludeSelf: true, Unordered: true, Nodes: 16, Seed: 10}
	got, st, err := ClosestPairs(objs, objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := topk.BruteForce(objs, objs, topk.Options{
		K: 100, ExcludeSelf: true, Unordered: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pairs = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: dist %v, want %v", i, got[i].Dist, want[i].Dist)
		}
	}
	cross := int64(len(objs)) * int64(len(objs))
	if st.Pairs >= cross/10 {
		t.Fatalf("computed %d of %d pairs — threshold pruning regressed", st.Pairs, cross)
	}
}
