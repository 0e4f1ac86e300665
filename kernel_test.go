package knnjoin

import (
	"fmt"
	"testing"

	"knnjoin/internal/dataset"
	"knnjoin/internal/rangejoin"
	"knnjoin/internal/vector"
)

// Reducer blocks scan on the tier their shape picks (vector.AutoTier):
// quantized for the 10-d groups of the larger input, the fused block
// kernel for the smaller one. The quantized tier only filters —
// survivors are re-ranked with the exact float64 kernel — so every
// algorithm that owns a reduce-side block scan matches the BruteForce
// oracle bit for bit on both.
func TestKernelTiersIdenticalJoins(t *testing.T) {
	for _, n := range []int{100, 1500} {
		objs := dataset.Uniform(n, 10, 100, 3)
		want, _, err := SelfJoin(objs, Options{K: 5, Algorithm: BruteForce})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{PGBJ, PBJ, Broadcast} {
			got, _, err := SelfJoin(objs, Options{K: 5, Algorithm: alg, Nodes: 4, Seed: 1})
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			assertIdentical(t, fmt.Sprintf("%v n=%d", alg, n), got, want)
		}
	}
}

// Same contract for the θ-range join, whose radius edge is decided on
// true distances on every tier.
func TestKernelTiersIdenticalRangeJoin(t *testing.T) {
	objs := dataset.Uniform(1200, 10, 100, 7)
	want := rangejoin.BruteForce(objs, objs, 60, vector.L2)
	got, _, err := RangeJoin(objs, objs, RangeOptions{Radius: 60, Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("radius finds no pairs; the test checks nothing")
	}
	assertIdentical(t, "range", got, want)
}

// Whatever plan the Auto algorithm picks for a 10-d input runs on the
// shape-picked tiers, and the output contract still holds.
func TestKernelWithAutoAlgorithm(t *testing.T) {
	objs := dataset.Uniform(1500, 10, 100, 5)
	want, _, err := SelfJoin(objs, Options{K: 4, Algorithm: BruteForce})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := SelfJoin(objs, Options{K: 4, Algorithm: Auto, Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan == nil {
		t.Fatal("Auto produced no plan info")
	}
	assertIdentical(t, st.Plan.Algorithm, got, want)
}
