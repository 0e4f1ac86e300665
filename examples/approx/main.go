// Choosing an approximate join: H-zkNNJ against the exact join.
//
// The paper restricts its evaluation to exact methods (§7); this example
// is the practical counterpart for users who can trade recall for speed.
// It runs H-zkNNJ (Algorithm ZKNN) and exact PGBJ on the same two
// workloads — low-dimensional skewed spatial data and 10-d
// CoverType-like data — and prints recall against the exact join next to
// the computation cost, so the decision rule is visible in the output:
//
//   - 2-d: the z-order curve keeps 31 bits per dimension and H-zkNNJ's
//     recall is near-perfect;
//   - 10-d: the curve is down to 6 bits per dimension and z-locality
//     collapses, so the exact join is the better buy.
//
// Run with: go run ./examples/approx
package main

import (
	"fmt"
	"log"

	"knnjoin"
	"knnjoin/internal/dataset"
	"knnjoin/internal/zknn"
)

const k = 10

func main() {
	for _, workload := range []struct {
		name string
		objs []knnjoin.Object
	}{
		{"OSM-like 2-d (8000 points)", dataset.OSM(8000, 1)},
		{"CoverType-like 10-d (8000 points)", dataset.Forest(8000, 2)},
	} {
		fmt.Printf("%s:\n", workload.name)
		exact, exactStats, err := knnjoin.SelfJoin(workload.objs, knnjoin.Options{K: k, Nodes: 8, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s recall 1.000  %8.1f‰ selectivity  (PGBJ, the exact reference)\n",
			"exact", exactStats.Selectivity()*1000)

		approx, st, err := knnjoin.SelfJoin(workload.objs, knnjoin.Options{
			K: k, Algorithm: knnjoin.ZKNN, Nodes: 8, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s recall %.3f  %8.1f‰ selectivity\n",
			knnjoin.ZKNN, zknn.Recall(approx, exact), st.Selectivity()*1000)
		fmt.Println()
	}
	fmt.Println("rule of thumb: z-order below ~4 dimensions; above, PGBJ, which is exact")
	fmt.Println("and competitive once its pruning bites.")
}
