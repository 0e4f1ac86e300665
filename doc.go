// Package knnjoin computes exact k-nearest-neighbor joins over
// multi-dimensional data on an emulated MapReduce cluster, implementing
// "Efficient Processing of k Nearest Neighbor Joins using MapReduce"
// (Lu, Shen, Chen, Ooi — PVLDB 5(10), 2012).
//
// The kNN join R ⋉ S pairs every object r of R with its k nearest
// neighbors in S. The package's flagship algorithm is PGBJ, the paper's
// Voronoi-partitioning + grouping join; the baselines it was evaluated
// against (PBJ, H-BRJ, the broadcast strategy and a centralized
// brute-force join) and one approximate method from its related work
// (H-zkNNJ under ZKNN) are provided under the same API.
//
// # The API surface
//
// Four join operators, all driven by plain slices of Object:
//
//   - Join computes KNN(r, S) for every r of R; SelfJoin is the R = S
//     workload the paper evaluates. Options selects the Algorithm, the
//     Metric (L2, L1, LInf), the simulated cluster size, and PGBJ's
//     pivot/grouping strategies; the zero value of every field but K is
//     usable.
//   - RangeJoin returns every (r, s) pair within a fixed radius θ — the
//     paper's machinery with the query radius standing in for the
//     derived bound (its Definition 3 and §2.3 range theorem).
//   - ClosestPairs returns the k closest pairs of R × S (Kim & Shim's
//     top-k similarity join, the "special case" of the paper's §7).
//   - LOF scores every object's local outlier factor over a kNN
//     self-join — the paper's §1 motivating application.
//
// Every operator also returns a *Stats carrying the paper's evaluation
// measures — per-phase wall time, distance-computation selectivity
// (Equation 13), shuffle bytes, S-replication, reducer skew, and the
// per-MapReduce-job breakdown in Stats.Jobs — so the trade-offs are
// observable on your own data. Helpers round the surface out:
// ExcludeSelf post-processes self-join results, the Parse* functions
// turn CLI strings into the option enums.
//
// Callers who would rather not hand-pick the algorithm can set
// Options.Algorithm to Auto: a fixed rule, read off measured runs of
// every fixed plan (ARCHITECTURE.md, "Auto: the evidence table"), runs
// PGBJ with the caller's pivot and grouping options, or the centralized
// join when |R|·|S| is too small to be worth a MapReduce job, and
// records the choice in Stats.Plan. ExplainAuto tells the choice
// without joining.
//
// Joins larger than memory run on the out-of-core execution backend:
// setting Options.SpillDir (or just Options.MemLimit) moves dataset
// chunks and map-side sorted runs to disk, and reducers stream the runs
// back through a bounded-memory k-way merge. Results are byte-identical
// to the in-memory backend; only the memory ceiling moves.
//
// Quick start (see ExampleJoin for the runnable form):
//
//	results, stats, err := knnjoin.Join(r, s, knnjoin.Options{K: 10})
//
// Every algorithm except the deliberately approximate ZKNN returns
// exact results, verified equal to the brute-force oracle across
// seed sweeps; they differ only in cost.
//
// See ARCHITECTURE.md at the repository root for the map from the
// paper's sections onto the internal packages, the shuffle pipeline, the
// binary key layouts, and the columnar block data flow that powers the
// reduce-side distance kernels.
package knnjoin
