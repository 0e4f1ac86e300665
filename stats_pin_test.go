package knnjoin

import (
	"fmt"
	"strings"
	"testing"

	"knnjoin/internal/dataset"
)

// statsPinRun is one join of the Stats pin under an engine
// configuration: the in-process engine, a memory limit that spills, or
// worker processes.
type statsPinRun struct {
	name string
	run  func(memLimit int64, workers int) (*Stats, error)
}

// statsPinRuns lists every driver the public API reaches — the seven
// Join algorithms, the range join and the closest-pairs join — on small
// seeded inputs with several DFS splits, each on four nodes.
func statsPinRuns() []statsPinRun {
	r := dataset.Uniform(1200, 3, 100, 41)
	s := dataset.Uniform(1500, 3, 100, 42)
	var runs []statsPinRun
	for _, alg := range []Algorithm{PGBJ, PBJ, HBRJ, Broadcast, BruteForce, ZKNN, Auto} {
		runs = append(runs, statsPinRun{alg.String(), func(memLimit int64, workers int) (*Stats, error) {
			_, st, err := Join(r, s, Options{K: 5, Algorithm: alg, Nodes: 4, Seed: 3,
				ChunkRecords: 256, MemLimit: memLimit, Workers: workers})
			return st, err
		}})
	}
	runs = append(runs,
		statsPinRun{"range", func(memLimit int64, workers int) (*Stats, error) {
			_, st, err := RangeJoin(r, s, RangeOptions{Radius: 6, Nodes: 4, Seed: 3,
				MemLimit: memLimit, Workers: workers})
			return st, err
		}},
		statsPinRun{"pairs", func(memLimit int64, workers int) (*Stats, error) {
			_, st, err := ClosestPairs(r, s, PairOptions{K: 50, Nodes: 4, Seed: 3,
				MemLimit: memLimit, Workers: workers})
			return st, err
		}},
	)
	return runs
}

// renderStatsPin prints every count of st — the Report's totals, each
// job's counts and the phase names in order — and none of its walls or
// engine-dependent counts (spilled bytes, worker tasks), which differ
// between engine configurations by design.
func renderStatsPin(name string, st *Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s k=%d |R|=%d |S|=%d dims=%d nodes=%d\n",
		name, st.Algorithm, st.K, st.RSize, st.SSize, st.Dims, st.Nodes)
	fmt.Fprintf(&b, "  pairs=%d assign=%d/%d reducer_pivot=%d/%d shuffle=%dB/%drec replicas_s=%d makespan=%d skew=%.6g\n",
		st.Pairs, st.AssignEvaluated, st.AssignCharged, st.ReducerPivotEvaluated, st.ReducerPivotCharged,
		st.ShuffleBytes, st.ShuffleRecords, st.ReplicasS, st.SimMakespan, st.JoinSkew)
	fmt.Fprintf(&b, "  output_pairs=%d\n", st.OutputPairs)
	phases := make([]string, len(st.Phases))
	for i, p := range st.Phases {
		phases[i] = p.Name
	}
	fmt.Fprintf(&b, "  phases: [%s]\n", strings.Join(phases, ", "))
	for _, j := range st.Jobs {
		fmt.Fprintf(&b, "  job %s: shuffle=%dB/%drec dist=%d groups=%d loaded=%d\n",
			j.Name, j.ShuffleBytes, j.ShuffleRecords, j.DistComps, j.ReduceGroups, j.LoadedReducers)
	}
	return b.String()
}

// TestStatsPin pins what every driver reports: the counts of each run
// must read exactly as recorded, in process, under a memory limit that
// spills and on two worker processes. A change that moves a count —
// a job folded twice, a counter read under the wrong name, a phase
// renamed or reordered — fails here on the line that moved.
func TestStatsPin(t *testing.T) {
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
			var got strings.Builder
			var spilled int64
			for _, run := range statsPinRuns() {
				st, err := run.run(mode.memLimit, mode.workers)
				if err != nil {
					t.Fatalf("%s: %v", run.name, err)
				}
				got.WriteString(renderStatsPin(run.name, st))
				for _, j := range st.Jobs {
					spilled += j.SpilledBytes
				}
			}
			if mode.memLimit > 0 && spilled == 0 {
				t.Error("nothing spilled under the memory limit")
			}
			if got.String() != statsPin {
				t.Errorf("stats moved:\n%s", lineDiff(statsPin, got.String()))
			}
		})
	}
}

// lineDiff lists the lines of got that differ from want, position by
// position, each after the line it replaces.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

// statsPin is renderStatsPin of every run of statsPinRuns.
const statsPin = `pgbj: PGBJ-rg k=5 |R|=1200 |S|=1500 dims=3 nodes=4
  pairs=352196 assign=46614/186300 reducer_pivot=17314/82194 shuffle=341187B/6963rec replicas_s=5763 makespan=93411 skew=1.01565
  output_pairs=6000
  phases: [Pivot Selection, Data Partitioning, Index Merging, Partition Grouping, KNN Join]
  job pgbj-partition: shuffle=0B/0rec dist=186300 groups=0 loaded=0
  job pgbj-join: shuffle=341187B/6963rec dist=158858 groups=4 loaded=4
pbj: PBJ k=5 |R|=1200 |S|=1500 dims=3 nodes=4
  pairs=412467 assign=46614/186300 reducer_pivot=22717/82800 shuffle=504600B/7800rec replicas_s=3000 makespan=117313 skew=1.04296
  output_pairs=6000
  phases: [Pivot Selection, Data Partitioning, Index Merging, KNN Join, Result Merging]
  job pgbj-partition: shuffle=0B/0rec dist=186300 groups=0 loaded=0
  job pbj-block-join: shuffle=264600B/5400rec dist=219129 groups=4 loaded=4
  job knn-merge: shuffle=240000B/2400rec dist=0 groups=1200 loaded=4
hbrj: H-BRJ k=5 |R|=1200 |S|=1500 dims=3 nodes=4
  pairs=257032 assign=0/0 reducer_pivot=0/0 shuffle=574800B/7800rec replicas_s=3000 makespan=65068 skew=1
  output_pairs=6000
  phases: [Block Join, Result Merging]
  job hbrj-block-join: shuffle=334800B/5400rec dist=257032 groups=4 loaded=4
  job knn-merge: shuffle=240000B/2400rec dist=0 groups=1200 loaded=4
broadcast: basic k=5 |R|=1200 |S|=1500 dims=3 nodes=4
  pairs=1800000 assign=0/0 reducer_pivot=0/0 shuffle=446400B/7200rec replicas_s=6000 makespan=450000 skew=1
  output_pairs=6000
  phases: [KNN Join]
  job broadcast-join: shuffle=446400B/7200rec dist=1800000 groups=4 loaded=4
bruteforce: bruteforce k=5 |R|=1200 |S|=1500 dims=3 nodes=1
  pairs=1800000 assign=0/0 reducer_pivot=0/0 shuffle=0B/0rec replicas_s=0 makespan=0 skew=0
  output_pairs=6000
  phases: []
zknn: H-zkNNJ k=5 |R|=1200 |S|=1500 dims=3 nodes=4
  pairs=71825 assign=0/0 reducer_pivot=0/0 shuffle=1280018B/18439rec replicas_s=11239 makespan=18367 skew=1.16854
  output_pairs=6000
  phases: [Z Preprocessing, Candidate Join, Result Merging]
  job zknn-candidates: shuffle=920018B/14839rec dist=71825 groups=12 loaded=12
  job knn-merge: shuffle=360000B/3600rec dist=0 groups=1200 loaded=4
auto: PGBJ-rg k=5 |R|=1200 |S|=1500 dims=3 nodes=4
  pairs=352196 assign=46614/186300 reducer_pivot=17314/82194 shuffle=341187B/6963rec replicas_s=5763 makespan=93411 skew=1.01565
  output_pairs=6000
  phases: [Pivot Selection, Data Partitioning, Index Merging, Partition Grouping, KNN Join]
  job pgbj-partition: shuffle=0B/0rec dist=186300 groups=0 loaded=0
  job pgbj-join: shuffle=341187B/6963rec dist=158858 groups=4 loaded=4
range: range-join k=0 |R|=1200 |S|=1500 dims=3 nodes=4
  pairs=292498 assign=46614/186300 reducer_pivot=13057/66888 shuffle=253428B/5172rec replicas_s=3972 makespan=130217 skew=1.07579
  output_pairs=1498
  phases: [Pivot Selection, Data Partitioning, Index Merging, Partition Grouping, Range Join]
  job range-partition: shuffle=0B/0rec dist=186300 groups=0 loaded=0
  job range-join: shuffle=253428B/5172rec dist=99160 groups=4 loaded=4
pairs: top-k pairs k=50 |R|=1200 |S|=1500 dims=3 nodes=4
  pairs=386982 assign=0/0 reducer_pivot=0/0 shuffle=165448B/3216rec replicas_s=1816 makespan=34475 skew=1.1313
  output_pairs=50
  phases: [Threshold Estimation, Pair Join, Top-k Merge]
  job topk-pair-join: shuffle=159848B/3016rec dist=124838 groups=4 loaded=4
  job topk-merge: shuffle=5600B/200rec dist=0 groups=1 loaded=1
`

// Stats.OutputPairs counts the (r, neighbor) pairs a run returned. With
// |S| < K every result holds |S| neighbors, not K, so a driver that
// derives the count from its output records and K over-reports it.
func TestOutputPairsCountsReturnedNeighbors(t *testing.T) {
	r := dataset.Uniform(20, 2, 100, 7)
	s := dataset.Uniform(3, 2, 100, 8)
	for _, alg := range []Algorithm{PGBJ, PBJ, HBRJ, Broadcast, BruteForce, ZKNN, Auto} {
		res, st, err := Join(r, s, Options{K: 5, Algorithm: alg, Nodes: 2, NumPivots: 2, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := countPairs(res); st.OutputPairs != got {
			t.Errorf("%v: Stats.OutputPairs = %d, the results hold %d neighbors", alg, st.OutputPairs, got)
		}
	}
	res, st, err := RangeJoin(r, s, RangeOptions{Radius: 40, Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := countPairs(res); st.OutputPairs != got {
		t.Errorf("range: Stats.OutputPairs = %d, the results hold %d neighbors", st.OutputPairs, got)
	}
	pairs, st, err := ClosestPairs(r, s, PairOptions{K: 100, Nodes: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.OutputPairs != int64(len(pairs)) {
		t.Errorf("pairs: Stats.OutputPairs = %d, returned %d pairs", st.OutputPairs, len(pairs))
	}
}
