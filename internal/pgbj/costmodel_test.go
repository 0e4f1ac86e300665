package pgbj

import (
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/grouping"
	"knnjoin/internal/pivot"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

// TestTheorem7PredictsActualShuffle re-derives the PGBJ routing state
// (pivots → partitions → summary → θ → groups → LB table) outside the
// pipeline and checks that the cost model of Theorem 7 predicts the
// pipeline's actual replication and shuffle record counts exactly:
//
//	ReplicasS      = RP(S)                        (Theorem 7)
//	ShuffleRecords = |R| + RP(S)                  (§3's |R| + α·|S|)
func TestTheorem7PredictsActualShuffle(t *testing.T) {
	objs := dataset.Forest(1500, 77)
	const (
		k         = 8
		numPivots = 40
		nodes     = 5
		seed      = 3
	)

	// Run the real pipeline.
	fs := dfs.New(128)
	cluster := newCluster(t, fs, nodes)
	dataset.ToDFS(fs, "R", objs, codec.FromR)
	dataset.ToDFS(fs, "S", objs, codec.FromS)
	rep, err := Run(cluster, "R", "S", "out", Options{
		K: k, NumPivots: numPivots, PivotStrategy: pivot.Random,
		GroupStrategy: Geometric, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Re-derive the routing state exactly as the pipeline does.
	pivots, err := pivot.Select(pivot.Random, objs, numPivots, pivot.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pp := voronoi.NewPartitioner(pivots, vector.L2)
	b := voronoi.NewSummaryBuilder(numPivots, k)
	rParts := pp.Partition(objs, codec.FromR, nil)
	sParts := pp.Partition(objs, codec.FromS, nil)
	for _, g := range rParts {
		for _, o := range g {
			b.Add(o)
		}
	}
	for _, g := range sParts {
		for _, o := range g {
			b.Add(o)
		}
		voronoi.SortByPivotDist(g)
	}
	sum := b.Finalize()
	thetas := grouping.Thetas(sum, pp)
	groups, err := grouping.Geometric(pp, sum, nodes)
	if err != nil {
		t.Fatal(err)
	}
	glbs := grouping.GroupLBs(pp, sum, thetas, groups)
	sDists := make([][]float64, numPivots)
	for i, g := range sParts {
		ds := make([]float64, len(g))
		for j, o := range g {
			ds[j] = o.PivotDist
		}
		sDists[i] = ds
	}
	predicted := grouping.ExactReplication(glbs, sDists)

	if rep.ReplicasS != predicted {
		t.Fatalf("actual replicas %d != Theorem 7 prediction %d", rep.ReplicasS, predicted)
	}
	if want := int64(len(objs)) + predicted; rep.ShuffleRecords != want {
		t.Fatalf("shuffle records %d != |R| + RP(S) = %d", rep.ShuffleRecords, want)
	}
}
