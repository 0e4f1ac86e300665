package experiments

import (
	"fmt"

	"knnjoin/internal/codec"
	"knnjoin/internal/driver"
	"knnjoin/internal/naive"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
	"knnjoin/internal/zknn"
)

// ZKNN is an extension experiment: H-zkNNJ — the approximate method the
// paper excludes (§7) — versus exact PGBJ, measuring the recall/cost
// trade-off as the shift count α grows.
func (r *Runner) ZKNN() (*ExpResult, error) {
	objs := r.ForestX(2)
	k := r.cfg.K
	exact, _ := naive.BruteForce(objs, objs, k, vector.L2)

	tb := &stats.Table{Header: []string{"algo", "recall", "time", "selectivity (‰)", "shuffle"}}
	addRow := func(name string, rep *stats.Report, results []codec.Result) {
		tb.AddRow(name, zknn.Recall(results, exact), rep.TotalWall(),
			rep.Selectivity()*1000, stats.FormatBytes(rep.ShuffleBytes))
	}

	pgbjRep, err := r.runAlgo("PGBJ", objs, k, r.cfg.Nodes, r.DefaultPivots())
	if err != nil {
		return nil, err
	}
	addRow("PGBJ (exact)", pgbjRep, exact)

	for _, shifts := range []int{1, 2, 3, 5} {
		env, err := r.newSelfJoinEnv(objs, r.cfg.Nodes)
		if err != nil {
			return nil, err
		}
		rep, err := zknn.Run(env.Cluster, "R", "S", "out", zknn.Options{K: k, Shifts: shifts, Seed: r.cfg.Seed})
		if err != nil {
			env.Close()
			return nil, err
		}
		results, err := driver.ReadResults(env.FS, "out")
		env.Close()
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("H-zkNNJ α=%d", shifts), rep, results)
	}
	return &ExpResult{
		Name:   "zknn",
		Title:  fmt.Sprintf("Approximate H-zkNNJ vs exact PGBJ (Forest×2, %d objects, k=%d)", len(objs), k),
		Tables: []*stats.Table{tb},
		Notes: []string{
			"extension beyond the paper: the z-order method it excluded from the exact comparison; " +
				"recall climbs with the shift count α at proportional cost",
		},
	}, nil
}
