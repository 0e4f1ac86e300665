package knnjoin

import (
	"testing"

	"knnjoin/internal/dataset"
)

// Job 2 of PGBJ, PBJ and the range join sends each group to a reduce
// task of its own (NumReducers is the group count and the partitioner
// routes by group id), so every reduce task that receives records
// streams exactly one group. That is what makes the merge stream's
// remaining-record count the exact size a reducer sizes its group block
// to, in memory and with spilled runs alike.
func TestJoinReducersStreamOneGroupEach(t *testing.T) {
	r := dataset.Uniform(400, 4, 100, 21)
	s := dataset.Uniform(450, 4, 100, 22)
	for _, memLimit := range []int64{0, 16 << 10} {
		runs := []struct {
			job string
			run func() (*Stats, error)
		}{
			{"pgbj-join", func() (*Stats, error) {
				_, st, err := Join(r, s, Options{K: 4, Algorithm: PGBJ, Nodes: 5, Seed: 3, MemLimit: memLimit})
				return st, err
			}},
			{"pbj-block-join", func() (*Stats, error) {
				_, st, err := Join(r, s, Options{K: 4, Algorithm: PBJ, Nodes: 5, Seed: 3, MemLimit: memLimit})
				return st, err
			}},
			{"range-join", func() (*Stats, error) {
				_, st, err := RangeJoin(r, s, RangeOptions{Radius: 12, Nodes: 5, Seed: 3, MemLimit: memLimit})
				return st, err
			}},
		}
		for _, tc := range runs {
			st, err := tc.run()
			if err != nil {
				t.Fatalf("%s, mem limit %d: %v", tc.job, memLimit, err)
			}
			found := false
			for _, j := range st.Jobs {
				if j.Name != tc.job {
					continue
				}
				found = true
				if j.LoadedReducers < 2 || j.ReduceGroups != int64(j.LoadedReducers) {
					t.Errorf("%s, mem limit %d: %d groups over %d loaded reduce tasks, want one group each on several",
						tc.job, memLimit, j.ReduceGroups, j.LoadedReducers)
				}
			}
			if !found {
				t.Errorf("%s, mem limit %d: job missing from the run's stats", tc.job, memLimit)
			}
		}
	}
}
