package knnjoin

import (
	"math"
	"testing"

	"knnjoin/internal/dataset"
)

// Stats carry two assignment counts and neither redefines the other:
// AssignCharged is the paper's |P| comparisons per object of R ∪ S (a
// share of Pairs, unchanged by the pruned scan), AssignEvaluated what
// voronoi.Partitioner.AssignEvaluated really computed. On the seeded
// 2-d and 10-d generators at the default 2·√|R| pivots the scan
// evaluates fewer than half, and — the scan keeping no state between
// objects — the count is the same on every engine configuration.
func TestStatsAssignEvaluated(t *testing.T) {
	osm := dataset.OSM(3000, 1)
	for name, tc := range map[string]struct{ r, s []Object }{
		"osm-2d-self": {osm, osm},
		"forest-10d":  {dataset.Forest(1500, 2), dataset.Expand(dataset.Forest(1500, 1), 3)},
	} {
		for _, alg := range []Algorithm{PGBJ, PBJ} {
			pivots := int(2 * math.Sqrt(float64(len(tc.r))))
			opts := Options{K: 5, Algorithm: alg, Nodes: 4, Seed: 1, NumPivots: pivots}
			_, base, err := Join(tc.r, tc.s, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(pivots) * int64(len(tc.r)+len(tc.s)); base.AssignCharged != want {
				t.Errorf("%s %v: AssignCharged = %d, want |P|·|R ∪ S| = %d", name, alg, base.AssignCharged, want)
			}
			if base.AssignEvaluated <= 0 || base.AssignEvaluated >= base.AssignCharged/2 {
				t.Errorf("%s %v: evaluated %d of %d charged pivot comparisons, want fewer than half",
					name, alg, base.AssignEvaluated, base.AssignCharged)
			}
			for variant, change := range map[string]func(*Options){
				"nodes=7":      func(o *Options) { o.Nodes = 7 },
				"mem-limit=1M": func(o *Options) { o.MemLimit = 1 << 20 },
				"workers=2":    func(o *Options) { o.Workers = 2 },
			} {
				o := opts
				change(&o)
				if o.Workers > 0 && testing.Short() {
					continue // spawns worker processes
				}
				_, st, err := Join(tc.r, tc.s, o)
				if err != nil {
					t.Fatalf("%s %v %s: %v", name, alg, variant, err)
				}
				if st.AssignEvaluated != base.AssignEvaluated || st.AssignCharged != base.AssignCharged {
					t.Errorf("%s %v %s: evaluated %d of %d, the 4-node in-process run had %d of %d",
						name, alg, variant, st.AssignEvaluated, st.AssignCharged, base.AssignEvaluated, base.AssignCharged)
				}
			}
		}
	}
	// Algorithms without pivots report neither count; the range join
	// partitions the same way and reports both.
	if _, st, err := Join(osm, osm, Options{K: 3, Algorithm: HBRJ, Nodes: 4}); err != nil || st.AssignCharged != 0 || st.AssignEvaluated != 0 {
		t.Errorf("H-BRJ: assignment counts %d/%d (err %v), want none", st.AssignEvaluated, st.AssignCharged, err)
	}
	if _, st, err := RangeJoin(osm, osm, RangeOptions{Radius: 0.01, Nodes: 4, Seed: 1}); err != nil || st.AssignEvaluated <= 0 || st.AssignEvaluated > st.AssignCharged {
		t.Errorf("range join: evaluated %d of %d (err %v), want 0 < evaluated ≤ charged", st.AssignEvaluated, st.AssignCharged, err)
	}
}
