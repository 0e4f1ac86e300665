package knnjoin

import (
	"math"
	"strings"
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

// The join reducers report the pivot distances |r,p_j| they computed
// beside the ones they are charged. The charged count is a share of
// Pairs; the evaluated one is what the pivot gap left undecided — on the
// seeded 2-d input under a tenth of the charge — and both are exact per
// seed: the same in process, under a memory limit that spills and on
// worker processes. Algorithms without a pivot walk report neither.
func TestStatsReducerPivotEvaluated(t *testing.T) {
	osm := dataset.OSM(3000, 1)
	forestR, forestS := dataset.Forest(1500, 2), dataset.Expand(dataset.Forest(1500, 1), 3)
	type run func(o Options) (*Stats, error)
	knn := func(r, s []Object, alg Algorithm) run {
		return func(o Options) (*Stats, error) {
			o.K, o.Algorithm = 5, alg
			_, st, err := Join(r, s, o)
			return st, err
		}
	}
	within := func(r, s []Object, radius float64) run {
		return func(o Options) (*Stats, error) {
			_, st, err := RangeJoin(r, s, RangeOptions{Radius: radius, Nodes: o.Nodes, Seed: o.Seed, MemLimit: o.MemLimit, Workers: o.Workers})
			return st, err
		}
	}
	for name, fn := range map[string]run{
		"osm pgbj":    knn(osm, osm, PGBJ),
		"osm pbj":     knn(osm, osm, PBJ),
		"osm range":   within(osm, osm, 0.01),
		"forest pgbj": knn(forestR, forestS, PGBJ),
		"forest pbj":  knn(forestR, forestS, PBJ),
	} {
		opts := Options{Nodes: 4, Seed: 1}
		base, err := fn(opts)
		if err != nil {
			t.Fatal(err)
		}
		if base.ReducerPivotEvaluated <= 0 || base.ReducerPivotEvaluated >= base.ReducerPivotCharged || base.ReducerPivotCharged >= base.Pairs {
			t.Errorf("%s: evaluated %d of %d charged reducer pivot distances, pairs %d", name,
				base.ReducerPivotEvaluated, base.ReducerPivotCharged, base.Pairs)
		}
		if strings.HasPrefix(name, "osm") && base.ReducerPivotEvaluated*10 >= base.ReducerPivotCharged {
			t.Errorf("%s: evaluated %d of %d, want under a tenth", name, base.ReducerPivotEvaluated, base.ReducerPivotCharged)
		}
		for variant, change := range map[string]func(*Options){
			"mem-limit=64K": func(o *Options) { o.MemLimit = 64 << 10 },
			"workers=2":     func(o *Options) { o.Workers = 2 },
		} {
			o := opts
			change(&o)
			if o.Workers > 0 && testing.Short() {
				continue // spawns worker processes
			}
			st, err := fn(o)
			if err != nil {
				t.Fatalf("%s %s: %v", name, variant, err)
			}
			var spilled int64
			for _, j := range st.Jobs {
				spilled += j.SpilledBytes
			}
			if o.MemLimit > 0 && spilled == 0 {
				t.Errorf("%s %s: nothing spilled", name, variant)
			}
			if st.ReducerPivotEvaluated != base.ReducerPivotEvaluated || st.ReducerPivotCharged != base.ReducerPivotCharged || st.Pairs != base.Pairs {
				t.Errorf("%s %s: evaluated %d of %d (pairs %d), in process %d of %d (pairs %d)", name, variant,
					st.ReducerPivotEvaluated, st.ReducerPivotCharged, st.Pairs,
					base.ReducerPivotEvaluated, base.ReducerPivotCharged, base.Pairs)
			}
		}
	}
	if _, st, err := Join(osm, osm, Options{K: 3, Algorithm: HBRJ, Nodes: 4}); err != nil || st.ReducerPivotCharged != 0 || st.ReducerPivotEvaluated != 0 {
		t.Errorf("H-BRJ: reducer pivot counts %d/%d (err %v), want none", st.ReducerPivotEvaluated, st.ReducerPivotCharged, err)
	}
}
