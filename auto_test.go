package knnjoin

import (
	"reflect"
	"testing"

	"knnjoin/internal/dataset"
	"knnjoin/internal/stats"
)

// TestAutoRunsTheRulesPick: a join with Algorithm Auto returns exactly
// what an explicit run of the rule's pick returns, with every Stats
// count equal, in process, under a memory limit that spills and on two
// worker processes; Stats.Plan names the pick, and the caller's pivot
// and grouping knobs pass through to it.
func TestAutoRunsTheRulesPick(t *testing.T) {
	r := dataset.Uniform(1200, 3, 100, 41)
	s := dataset.Uniform(1500, 3, 100, 42)
	knobs := Options{NumPivots: 30, PivotStrategy: FarthestPivots, GroupStrategy: GreedyGrouping}
	pgbjKnobs := knobs
	pgbjKnobs.Algorithm = PGBJ
	cases := []struct {
		name       string
		r, s       []Object
		opts, pick Options
	}{
		{"default", r, s, Options{}, Options{Algorithm: PGBJ}},
		{"knobs", r, s, knobs, pgbjKnobs},
		{"r>>s", r, s[:300], Options{}, Options{Algorithm: PGBJ}},
		{"tiny", r[:40], s, Options{}, Options{Algorithm: BruteForce}},
		{"at the cut", r[:256], s[:1024], Options{}, Options{Algorithm: BruteForce}},
		{"above the cut", r[:257], s[:1024], Options{}, Options{Algorithm: PGBJ}},
	}
	for _, mode := range []struct {
		name     string
		memLimit int64
		workers  int
	}{
		{"in-process", 0, 0},
		{"mem-limit=64K", 64 << 10, 0},
		{"workers=2", 0, 2},
	} {
		t.Run(mode.name, func(t *testing.T) {
			if mode.workers > 0 && testing.Short() {
				t.Skip("spawns worker processes")
			}
			for _, c := range cases {
				join := func(opts Options) ([]Result, *Stats) {
					t.Helper()
					opts.K, opts.Nodes, opts.Seed, opts.ChunkRecords = 5, 4, 3, 256
					opts.MemLimit, opts.Workers = mode.memLimit, mode.workers
					res, st, err := Join(c.r, c.s, opts)
					if err != nil {
						t.Fatalf("%s %v: %v", c.name, opts.Algorithm, err)
					}
					return res, st
				}
				auto := c.opts
				auto.Algorithm = Auto
				got, st := join(auto)
				want, wst := join(c.pick)
				if st.Plan == nil || st.Plan.Algorithm != c.pick.Algorithm.String() {
					t.Fatalf("%s: Stats.Plan = %v, want the rule to pick %v", c.name, st.Plan, c.pick.Algorithm)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Auto's results differ from %v's", c.name, c.pick.Algorithm)
				}
				if g, w := renderStatsPin(c.name, st), renderStatsPin(c.name, wst); g != w {
					t.Errorf("%s: Auto's stats differ from %v's:\n%s", c.name, c.pick.Algorithm, lineDiff(w, g))
				}
			}
		})
	}
}

// TestAutoJoinEmptyInputs: Auto runs the centralized join on empty
// inputs, and still requires K.
func TestAutoJoinEmptyInputs(t *testing.T) {
	objs := dataset.Uniform(50, 3, 100, 1)
	if _, _, err := Join(nil, objs, Options{K: 3, Algorithm: Auto}); err != nil {
		t.Fatalf("empty R: %v", err)
	}
	res, st, err := Join(objs, nil, Options{K: 3, Algorithm: Auto})
	if err != nil {
		t.Fatalf("empty S: %v", err)
	}
	if len(res) != 0 || st == nil {
		t.Fatalf("empty S returned %d results", len(res))
	}
	if _, _, err := Join(objs, objs, Options{Algorithm: Auto}); err == nil {
		t.Error("Auto with K=0 accepted")
	}
}

// TestStatsJobsActuals is the regression gate for the per-job actuals:
// every distributed algorithm must report at least one job whose
// shuffle-byte and distance-computation actuals sum to the aggregate
// counters, and the whole breakdown (walls aside) must be identical
// across runs with one seed.
func TestStatsJobsActuals(t *testing.T) {
	objs := dataset.Uniform(600, 4, 100, 3)
	run := func(a Algorithm) *Stats {
		t.Helper()
		_, st, err := Join(objs, objs, Options{K: 5, Algorithm: a, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		return st
	}
	stripWall := func(jobs []stats.JobStat) []stats.JobStat {
		out := append([]stats.JobStat(nil), jobs...)
		for i := range out {
			out[i].Wall = 0
			out[i].MapWall = 0
			out[i].ReduceWall = 0
		}
		return out
	}
	for _, a := range []Algorithm{PGBJ, PBJ, HBRJ, Broadcast, ZKNN} {
		t.Run(a.String(), func(t *testing.T) {
			st := run(a)
			if len(st.Jobs) == 0 {
				t.Fatal("no per-job actuals recorded")
			}
			var shuffle, comps int64
			for _, j := range st.Jobs {
				if j.Name == "" {
					t.Error("job with empty name")
				}
				shuffle += j.ShuffleBytes
				comps += j.DistComps
			}
			if shuffle != st.ShuffleBytes {
				t.Errorf("job shuffle bytes sum %d != aggregate %d", shuffle, st.ShuffleBytes)
			}
			if shuffle <= 0 {
				t.Error("zero shuffle bytes across all jobs")
			}
			if comps <= 0 {
				t.Error("zero distance computations across all jobs")
			}
			a2 := stripWall(run(a).Jobs)
			a1 := stripWall(st.Jobs)
			if len(a1) != len(a2) {
				t.Fatalf("job count unstable across runs: %d vs %d", len(a1), len(a2))
			}
			for i := range a1 {
				if a1[i] != a2[i] {
					t.Errorf("job %d actuals unstable per seed: %+v vs %+v", i, a1[i], a2[i])
				}
			}
		})
	}
	// The centralized join has no jobs — the breakdown stays empty.
	if st := run(BruteForce); len(st.Jobs) != 0 {
		t.Errorf("bruteforce recorded %d jobs", len(st.Jobs))
	}
}
