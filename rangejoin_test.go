package knnjoin

import (
	"math"
	"testing"

	"knnjoin/internal/dataset"
	"knnjoin/internal/rangejoin"
	"knnjoin/internal/vector"
)

func TestRangeJoinMatchesBruteForce(t *testing.T) {
	objs := dataset.Uniform(800, 3, 100, 30)
	want := rangejoin.BruteForce(objs, objs, 12, vector.L2)
	got, st, err := RangeJoin(objs, objs, RangeOptions{Radius: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].RID != want[i].RID || len(got[i].Neighbors) != len(want[i].Neighbors) {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
		for j := range want[i].Neighbors {
			if got[i].Neighbors[j].ID != want[i].Neighbors[j].ID ||
				math.Abs(got[i].Neighbors[j].Dist-want[i].Neighbors[j].Dist) > 1e-9 {
				t.Fatalf("r %d neighbor %d mismatch", want[i].RID, j)
			}
		}
	}
	if st.Algorithm != "range-join" || st.Dims != 3 {
		t.Fatalf("implausible stats %+v", st)
	}
	if st.OutputPairs <= 0 || st.ShuffleBytes <= 0 {
		t.Fatalf("missing accounting: %+v", st)
	}
}

func TestRangeJoinValidationAndEdges(t *testing.T) {
	objs := dataset.Uniform(50, 2, 100, 31)
	if _, _, err := RangeJoin(objs, objs, RangeOptions{Radius: -1}); err == nil {
		t.Error("negative radius accepted")
	}
	if _, _, err := RangeJoin(objs, objs, RangeOptions{Radius: math.NaN()}); err == nil {
		t.Error("NaN radius accepted")
	}
	if got, st, err := RangeJoin(nil, objs, RangeOptions{Radius: 1}); err != nil || len(got) != 0 || st == nil {
		t.Errorf("empty R: %v, %v, %v", got, st, err)
	}
	if got, _, err := RangeJoin(objs, nil, RangeOptions{Radius: 1}); err != nil || len(got) != 0 {
		t.Errorf("empty S: %v, %v", got, err)
	}
	bad := []Object{{ID: 0, Point: Point{1}}}
	if _, _, err := RangeJoin(bad, objs, RangeOptions{Radius: 1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

// Property: range-join results grow monotonically with the radius — a
// larger θ can only add pairs, never lose them.
func TestRangeJoinRadiusMonotone(t *testing.T) {
	objs := dataset.Uniform(300, 2, 100, 33)
	var prev int64 = -1
	for _, radius := range []float64{1, 4, 9, 25, 60} {
		_, st, err := RangeJoin(objs, objs, RangeOptions{Radius: radius, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if st.OutputPairs < prev {
			t.Fatalf("radius %v produced %d pairs, fewer than the smaller radius's %d",
				radius, st.OutputPairs, prev)
		}
		prev = st.OutputPairs
	}
	if prev < int64(len(objs)) {
		t.Fatalf("largest radius found only %d pairs", prev)
	}
}

func TestRangeJoinOtherMetric(t *testing.T) {
	objs := dataset.Uniform(400, 3, 100, 32)
	want := rangejoin.BruteForce(objs, objs, 9, vector.L1)
	got, _, err := RangeJoin(objs, objs, RangeOptions{Radius: 9, Metric: L1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
}
