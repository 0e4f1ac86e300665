package shard

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/pgbj"
	"knnjoin/internal/rangejoin"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
	"knnjoin/internal/vindex"
)

// TestGoldenCounts pins the exact work every Algorithm-3 walk charges,
// and a digest of what it emits, on seeded 2-d and 10-d inputs. The
// walk's users charge by different policies, and this test is what holds
// each one:
//   - the join reducers (PGBJ with each ablation, PBJ, the range join)
//     charge every (row, S-partition) pivot distance, own cell included;
//   - a kNN query charges |P| for assignment, one distance per cell with
//     a TS row for the starting bound, and every non-own pivot for the
//     visit order, empty cells included;
//   - a range query skips empty cells before charging their pivot;
//   - the router replays the single-node walk and adds its RPC and
//     contacted-shard counts.
//
// It lives in package shard because only here are the router's walk and
// every layer below it in reach.
func TestGoldenCounts(t *testing.T) {
	var b strings.Builder
	inputs := []struct {
		name   string
		r, s   []codec.Object
		radius float64
	}{
		{"osm2d", dataset.OSM(500, 1), dataset.OSM(1500, 2), 3},
		{"forest10d", dataset.Forest(500, 3), dataset.Forest(1500, 4), 250},
	}
	var evaluated strings.Builder
	for _, in := range inputs {
		goldenJoins(t, &b, &evaluated, in.name, in.r, in.s, in.radius)
		goldenServing(t, &b, in.name, in.r, in.s, in.radius)
	}
	b.WriteString(evaluated.String())
	got, want := strings.Split(b.String(), "\n"), strings.Split(goldenWant, "\n")
	bad := 0
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			if bad++; bad <= 20 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
	if bad > 0 {
		t.Logf("%d lines differ; the full output:\n%s", bad, b.String())
	}
}

// goldenJoins records Stats.Pairs (pgbj.dist_comps), the replica count
// and an output digest of every pivot-pruned join into b, and into ev
// the reducer pivot distances it charged and evaluated.
func goldenJoins(t *testing.T, b, ev *strings.Builder, name string, r, s []codec.Object, radius float64) {
	t.Helper()
	run := func(label string, fn func(*mapreduce.Cluster) (*stats.Report, error)) {
		fs := dfs.New(256)
		cluster, err := mapreduce.NewCluster(fs, 4, mapreduce.Config{})
		if err != nil {
			t.Fatal(err)
		}
		dataset.ToDFS(fs, "R", r, codec.FromR)
		dataset.ToDFS(fs, "S", s, codec.FromS)
		rep, err := fn(cluster)
		if err != nil {
			t.Fatalf("%s %s: %v", name, label, err)
		}
		pairs, replicas := rep.Pairs, rep.ReplicasS
		recs, err := fs.Read("out")
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, rec := range recs {
			h.Write(rec)
		}
		fmt.Fprintf(b, "%s %s pairs=%d replicas=%d out=%d/%016x\n", name, label, pairs, replicas, len(recs), h.Sum64())
		fmt.Fprintf(ev, "%s %s reducer-pivots evaluated=%d charged=%d\n", name, label, rep.ReducerPivotEvaluated, rep.ReducerPivotCharged)
	}
	base := pgbj.Options{K: 5, NumPivots: 32, Seed: 1}
	for _, v := range []struct {
		label string
		set   func(*pgbj.Options)
	}{
		{"pgbj", func(*pgbj.Options) {}},
		{"pgbj-nohyperplane", func(o *pgbj.Options) { o.DisableHyperplanePruning = true }},
		{"pgbj-nowindow", func(o *pgbj.Options) { o.DisableWindowPruning = true }},
		{"pgbj-idorder", func(o *pgbj.Options) { o.DisableNearestFirstOrder = true }},
		{"pgbj-greedy", func(o *pgbj.Options) { o.GroupStrategy = pgbj.Greedy }},
	} {
		opts := base
		v.set(&opts)
		run(v.label, func(c *mapreduce.Cluster) (*stats.Report, error) {
			return pgbj.Run(c, "R", "S", "out", opts)
		})
	}
	run("pbj", func(c *mapreduce.Cluster) (*stats.Report, error) {
		return pgbj.RunPBJ(c, "R", "S", "out", base)
	})
	run("rangejoin", func(c *mapreduce.Cluster) (*stats.Report, error) {
		return rangejoin.Run(c, "R", "S", "out", rangejoin.Options{Radius: radius, NumPivots: 32, Seed: 1})
	})
}

// goldenServing records the summed vindex.Stats and an answer digest of
// 64 single, batched and range queries under every metric, single-node
// and through the router at 1, 2 and 4 shards.
func goldenServing(t *testing.T, b *strings.Builder, name string, r, s []codec.Object, radius float64) {
	t.Helper()
	qs := make([]vector.Point, 64)
	ks := make([]int, len(qs))
	for i := range qs {
		qs[i] = r[i].Point
		ks[i] = 1 + (7*i)%24 // past BoundK = 16 too: the starting bound is +Inf there
	}
	for _, m := range []vector.Metric{vector.L2, vector.L1, vector.LInf} {
		ix, err := vindex.Build(s, vindex.Options{Metric: m, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		line := func(label string, st vindex.Stats, h uint64, extra string) {
			fmt.Fprintf(b, "%s %v %s dist=%d scanned=%d pruned=%d ans=%016x%s\n",
				name, m, label, st.DistComputations, st.PartitionsScanned, st.PartitionsPruned, h, extra)
		}

		var st vindex.Stats
		h := fnv.New64a()
		for _, q := range qs {
			res, qst := ix.KNNWithStats(q, 10)
			st.Add(qst)
			hashCands(h, res)
		}
		line("knn", st, h.Sum64(), "")

		st, h = vindex.Stats{}, fnv.New64a()
		res, sts := ix.KNNBatchWithStats(qs, ks)
		for i := range qs {
			st.Add(sts[i])
			hashCands(h, res[i])
		}
		line("batch", st, h.Sum64(), "")

		st, h = vindex.Stats{}, fnv.New64a()
		for _, q := range qs {
			objs, qst := ix.RangeWithStats(q, radius)
			st.Add(qst)
			hashObjects(h, objs)
		}
		line("range", st, h.Sum64(), "")

		meta := metaOf(t, ix)
		for _, shards := range []int{1, 2, 4} {
			owner, cells := AssignCells(ix, shards)
			ls := newLocalScan(t, ix, cells)
			st, h = vindex.Stats{}, fnv.New64a()
			contacted := 0
			for _, q := range qs {
				res, qst, n, err := knnWalk(meta, owner, 1, q, 10, ls.scan)
				if err != nil {
					t.Fatal(err)
				}
				st.Add(qst)
				contacted += n
				hashCands(h, res)
			}
			line(fmt.Sprintf("router%d-knn", shards), st, h.Sum64(), fmt.Sprintf(" rpcs=%d contacted=%d", ls.rpcs, contacted))

			st, h = vindex.Stats{}, fnv.New64a()
			contacted = 0
			for _, q := range qs {
				objs, qst, n, err := rangeWalk(meta, owner, 1, q, radius, ls.rangeScan)
				if err != nil {
					t.Fatal(err)
				}
				st.Add(qst)
				contacted += n
				hashObjects(h, objs)
			}
			line(fmt.Sprintf("router%d-range", shards), st, h.Sum64(), fmt.Sprintf(" contacted=%d", contacted))
		}
	}
}

func hashCands(h interface{ Write([]byte) (int, error) }, cs []nnheap.Candidate) {
	for _, c := range cs {
		fmt.Fprintf(h, "%d:%x,", c.ID, math.Float64bits(c.Dist))
	}
	h.Write([]byte{'\n'})
}

func hashObjects(h interface{ Write([]byte) (int, error) }, objs []codec.Object) {
	for _, o := range objs {
		h.Write(codec.EncodeObject(o))
	}
	h.Write([]byte{'\n'})
}

// goldenWant was recorded before the Algorithm-3 walk moved into
// voronoi.Walk; a change to any line is a change in what a walk computes
// or charges. The closing reducer-pivots lines count the |r,p_j| the
// join reducers computed beside the ones they are charged (a share of
// pairs): they were added when the reducers began deciding cells from
// the pivot gap. The cost-based planner's plan lines were removed with
// the planner; no other line moved.
const goldenWant = `osm2d pgbj pairs=106687 replicas=4836 out=500/a071276a9ab40a55
osm2d pgbj-nohyperplane pairs=118601 replicas=4836 out=500/a071276a9ab40a55
osm2d pgbj-nowindow pairs=126075 replicas=4836 out=500/a071276a9ab40a55
osm2d pgbj-idorder pairs=122790 replicas=4836 out=500/a071276a9ab40a55
osm2d pgbj-greedy pairs=107244 replicas=4911 out=500/5a3542790e1e2b39
osm2d pbj pairs=178829 replicas=3000 out=500/50a2aa6786e0e8a5
osm2d rangejoin pairs=74490 replicas=2891 out=136/753eccc8c777e23e
osm2d L2 knn dist=16845 scanned=159 pruned=4705 ans=b0c08ff432ff2843
osm2d L2 batch dist=17036 scanned=181 pruned=4683 ans=4bad9a39e59cf5d6
osm2d L2 range dist=10202 scanned=0 pruned=0 ans=d9d0f7f121175a4b
osm2d L2 router1-knn dist=16845 scanned=159 pruned=4705 ans=b0c08ff432ff2843 rpcs=64 contacted=64
osm2d L2 router1-range dist=10202 scanned=0 pruned=0 ans=d9d0f7f121175a4b contacted=64
osm2d L2 router2-knn dist=16845 scanned=159 pruned=4705 ans=b0c08ff432ff2843 rpcs=101 contacted=90
osm2d L2 router2-range dist=10202 scanned=0 pruned=0 ans=d9d0f7f121175a4b contacted=77
osm2d L2 router4-knn dist=16845 scanned=159 pruned=4705 ans=b0c08ff432ff2843 rpcs=123 contacted=107
osm2d L2 router4-range dist=10202 scanned=0 pruned=0 ans=d9d0f7f121175a4b contacted=78
osm2d L1 knn dist=17193 scanned=229 pruned=4635 ans=2db00ef499ad8955
osm2d L1 batch dist=17676 scanned=242 pruned=4622 ans=9c5050c47bd7d041
osm2d L1 range dist=10272 scanned=0 pruned=0 ans=88c9e7d04af27866
osm2d L1 router1-knn dist=17193 scanned=229 pruned=4635 ans=2db00ef499ad8955 rpcs=64 contacted=64
osm2d L1 router1-range dist=10272 scanned=0 pruned=0 ans=88c9e7d04af27866 contacted=62
osm2d L1 router2-knn dist=17193 scanned=229 pruned=4635 ans=2db00ef499ad8955 rpcs=128 contacted=98
osm2d L1 router2-range dist=10272 scanned=0 pruned=0 ans=88c9e7d04af27866 contacted=77
osm2d L1 router4-knn dist=17193 scanned=229 pruned=4635 ans=2db00ef499ad8955 rpcs=167 contacted=125
osm2d L1 router4-range dist=10272 scanned=0 pruned=0 ans=88c9e7d04af27866 contacted=77
osm2d LInf knn dist=17120 scanned=215 pruned=4649 ans=35f764ba7ac3e593
osm2d LInf batch dist=17315 scanned=236 pruned=4628 ans=3d06f0b25596ebeb
osm2d LInf range dist=10263 scanned=0 pruned=0 ans=3b3e80b3d192ce21
osm2d LInf router1-knn dist=17120 scanned=215 pruned=4649 ans=35f764ba7ac3e593 rpcs=64 contacted=64
osm2d LInf router1-range dist=10263 scanned=0 pruned=0 ans=3b3e80b3d192ce21 contacted=64
osm2d LInf router2-knn dist=17120 scanned=215 pruned=4649 ans=35f764ba7ac3e593 rpcs=125 contacted=106
osm2d LInf router2-range dist=10263 scanned=0 pruned=0 ans=3b3e80b3d192ce21 contacted=82
osm2d LInf router4-knn dist=17120 scanned=215 pruned=4649 ans=35f764ba7ac3e593 rpcs=120 contacted=104
osm2d LInf router4-range dist=10263 scanned=0 pruned=0 ans=3b3e80b3d192ce21 contacted=74
forest10d pgbj pairs=151750 replicas=5637 out=500/c2a8d37c8493db2c
forest10d pgbj-nohyperplane pairs=169546 replicas=5637 out=500/c2a8d37c8493db2c
forest10d pgbj-nowindow pairs=190216 replicas=5637 out=500/c2a8d37c8493db2c
forest10d pgbj-idorder pairs=219769 replicas=5637 out=500/c2a8d37c8493db2c
forest10d pgbj-greedy pairs=152267 replicas=5830 out=500/6de177596e1e2234
forest10d pbj pairs=204551 replicas=3000 out=500/1f1ec93b3e3c9f1c
forest10d rangejoin pairs=112466 replicas=4849 out=199/8e00f46ca8b09942
forest10d L2 knn dist=22126 scanned=578 pruned=4286 ans=ee4aae96d05dceee
forest10d L2 batch dist=22653 scanned=599 pruned=4265 ans=dd30c46f436d455f
forest10d L2 range dist=12278 scanned=0 pruned=0 ans=cd5462f32337cba1
forest10d L2 router1-knn dist=22126 scanned=578 pruned=4286 ans=ee4aae96d05dceee rpcs=64 contacted=64
forest10d L2 router1-range dist=12278 scanned=0 pruned=0 ans=cd5462f32337cba1 contacted=64
forest10d L2 router2-knn dist=22126 scanned=578 pruned=4286 ans=ee4aae96d05dceee rpcs=306 contacted=124
forest10d L2 router2-range dist=12278 scanned=0 pruned=0 ans=cd5462f32337cba1 contacted=102
forest10d L2 router4-knn dist=22126 scanned=578 pruned=4286 ans=ee4aae96d05dceee rpcs=380 contacted=173
forest10d L2 router4-range dist=12278 scanned=0 pruned=0 ans=cd5462f32337cba1 contacted=123
forest10d L1 knn dist=25542 scanned=1010 pruned=3854 ans=d893864eb67a7a66
forest10d L1 batch dist=25904 scanned=1023 pruned=3841 ans=019fccc04d192413
forest10d L1 range dist=11125 scanned=0 pruned=0 ans=b5046a364df47125
forest10d L1 router1-knn dist=25542 scanned=1010 pruned=3854 ans=d893864eb67a7a66 rpcs=64 contacted=64
forest10d L1 router1-range dist=11125 scanned=0 pruned=0 ans=b5046a364df47125 contacted=64
forest10d L1 router2-knn dist=25542 scanned=1010 pruned=3854 ans=d893864eb67a7a66 rpcs=514 contacted=128
forest10d L1 router2-range dist=11125 scanned=0 pruned=0 ans=b5046a364df47125 contacted=95
forest10d L1 router4-knn dist=25542 scanned=1010 pruned=3854 ans=d893864eb67a7a66 rpcs=658 contacted=206
forest10d L1 router4-range dist=11125 scanned=0 pruned=0 ans=b5046a364df47125 contacted=104
forest10d LInf knn dist=21603 scanned=592 pruned=4272 ans=e728af80ae9e5d6c
forest10d LInf batch dist=21991 scanned=614 pruned=4250 ans=59d58add3881018a
forest10d LInf range dist=13866 scanned=0 pruned=0 ans=894665a8b374a16a
forest10d LInf router1-knn dist=21603 scanned=592 pruned=4272 ans=e728af80ae9e5d6c rpcs=64 contacted=64
forest10d LInf router1-range dist=13866 scanned=0 pruned=0 ans=894665a8b374a16a contacted=64
forest10d LInf router2-knn dist=21603 scanned=592 pruned=4272 ans=e728af80ae9e5d6c rpcs=318 contacted=126
forest10d LInf router2-range dist=13866 scanned=0 pruned=0 ans=894665a8b374a16a contacted=118
forest10d LInf router4-knn dist=21603 scanned=592 pruned=4272 ans=e728af80ae9e5d6c rpcs=402 contacted=185
forest10d LInf router4-range dist=13866 scanned=0 pruned=0 ans=894665a8b374a16a contacted=167
osm2d pgbj reducer-pivots evaluated=1960 charged=10690
osm2d pgbj-nohyperplane reducer-pivots evaluated=2494 charged=10690
osm2d pgbj-nowindow reducer-pivots evaluated=2173 charged=10690
osm2d pgbj-idorder reducer-pivots evaluated=2658 charged=10690
osm2d pgbj-greedy reducer-pivots evaluated=1960 charged=11247
osm2d pbj reducer-pivots evaluated=3157 charged=12500
osm2d rangejoin reducer-pivots evaluated=898 charged=7293
forest10d pgbj reducer-pivots evaluated=6139 charged=15360
forest10d pgbj-nohyperplane reducer-pivots evaluated=9087 charged=15360
forest10d pgbj-nowindow reducer-pivots evaluated=6989 charged=15360
forest10d pgbj-idorder reducer-pivots evaluated=7870 charged=15360
forest10d pgbj-greedy reducer-pivots evaluated=6139 charged=15877
forest10d pbj reducer-pivots evaluated=7200 charged=16000
forest10d rangejoin reducer-pivots evaluated=4840 charged=14580
`
