package knnjoin_test

import (
	"fmt"

	"knnjoin"
)

// The smallest complete join: two tiny datasets, k = 2.
func ExampleJoin() {
	r := []knnjoin.Object{
		{ID: 0, Point: knnjoin.Point{0, 0}},
		{ID: 1, Point: knnjoin.Point{10, 10}},
	}
	s := []knnjoin.Object{
		{ID: 100, Point: knnjoin.Point{1, 0}},
		{ID: 101, Point: knnjoin.Point{0, 2}},
		{ID: 102, Point: knnjoin.Point{9, 10}},
		{ID: 103, Point: knnjoin.Point{50, 50}}, // never a 2-NN of anything
	}
	results, _, err := knnjoin.Join(r, s, knnjoin.Options{K: 2})
	if err != nil {
		panic(err)
	}
	for _, res := range results {
		fmt.Printf("r=%d:", res.RID)
		for _, nb := range res.Neighbors {
			fmt.Printf(" (s=%d d=%.0f)", nb.ID, nb.Dist)
		}
		fmt.Println()
	}
	// Output:
	// r=0: (s=100 d=1) (s=101 d=2)
	// r=1: (s=102 d=1) (s=101 d=13)
}

// JoinTo streams the same results in the same order, one at a time, so
// a caller that writes them out never holds them all. The Result is
// reused for the next call.
func ExampleJoinTo() {
	r := []knnjoin.Object{
		{ID: 0, Point: knnjoin.Point{0, 0}},
		{ID: 1, Point: knnjoin.Point{10, 10}},
	}
	s := []knnjoin.Object{
		{ID: 100, Point: knnjoin.Point{1, 0}},
		{ID: 101, Point: knnjoin.Point{0, 2}},
		{ID: 102, Point: knnjoin.Point{9, 10}},
	}
	_, err := knnjoin.JoinTo(r, s, knnjoin.Options{K: 1}, func(res knnjoin.Result) error {
		fmt.Printf("%d,%d,%g\n", res.RID, res.Neighbors[0].ID, res.Neighbors[0].Dist)
		return nil
	})
	if err != nil {
		panic(err)
	}
	// Output:
	// 0,100,1
	// 1,102,1
}

// A self-join asks each object for its neighbors within the same set;
// with K+1 and ExcludeSelf the trivial self-match is dropped. Object 1
// is equidistant to 0 and 2; kNN ties may resolve to either (Definition
// 1 permits any), deterministically per seed.
func ExampleSelfJoin() {
	objs := []knnjoin.Object{
		{ID: 0, Point: knnjoin.Point{0, 0}},
		{ID: 1, Point: knnjoin.Point{3, 4}},
		{ID: 2, Point: knnjoin.Point{6, 8}},
	}
	results, _, err := knnjoin.SelfJoin(objs, knnjoin.Options{K: 2})
	if err != nil {
		panic(err)
	}
	results = knnjoin.ExcludeSelf(results)
	for _, res := range results {
		fmt.Printf("r=%d nearest other: s=%d d=%.0f\n", res.RID, res.Neighbors[0].ID, res.Neighbors[0].Dist)
	}
	// Output:
	// r=0 nearest other: s=1 d=5
	// r=1 nearest other: s=2 d=5
	// r=2 nearest other: s=1 d=5
}

// Algorithms are swappable; they return identical results at different
// costs.
func ExampleParseAlgorithm() {
	alg, err := knnjoin.ParseAlgorithm("h-brj")
	fmt.Println(alg, err)
	// Output:
	// hbrj <nil>
}

// ClosestPairs answers a different question than Join: not "who are each
// object's neighbors" but "which pairs are closest overall".
func ExampleClosestPairs() {
	objs := []knnjoin.Object{
		{ID: 0, Point: knnjoin.Point{0, 0}},
		{ID: 1, Point: knnjoin.Point{1, 0}}, // 0–1 is the closest pair
		{ID: 2, Point: knnjoin.Point{10, 0}},
		{ID: 3, Point: knnjoin.Point{14, 0}}, // 2–3 is the runner-up
	}
	pairs, _, err := knnjoin.ClosestPairs(objs, objs, knnjoin.PairOptions{
		K: 2, ExcludeSelf: true, Unordered: true,
	})
	if err != nil {
		panic(err)
	}
	for _, p := range pairs {
		fmt.Printf("(%d, %d) d=%.0f\n", p.RID, p.SID, p.Dist)
	}
	// Output:
	// (0, 1) d=1
	// (2, 3) d=4
}

// LOF scores outliers against their local density: the lone point far
// from the grid gets the top score, grid interior points score ≈ 1.
func ExampleLOF() {
	var objs []knnjoin.Object
	id := int64(0)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			objs = append(objs, knnjoin.Object{ID: id, Point: knnjoin.Point{float64(i), float64(j)}})
			id++
		}
	}
	objs = append(objs, knnjoin.Object{ID: id, Point: knnjoin.Point{20, 20}})

	scores, _, err := knnjoin.LOF(objs, 3, knnjoin.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("most anomalous: object %d (LOF %.1f)\n", scores[0].ID, scores[0].LOF)
	// Output:
	// most anomalous: object 25 (LOF 20.3)
}

// Asking which configuration Algorithm Auto runs, without joining.
func ExampleExplainAuto() {
	r := make([]knnjoin.Object, 1024)
	for i := range r {
		r[i] = knnjoin.Object{ID: int64(i), Point: knnjoin.Point{float64(i % 32), float64(i / 32)}}
	}
	plan, err := knnjoin.ExplainAuto(r, r, knnjoin.Options{K: 4})
	if err != nil {
		panic(err)
	}
	fmt.Println(plan)
	// Output:
	// plan pgbj pivots=64/random/geometric: the default above the brute-force cut (ARCHITECTURE.md, "Auto: the evidence table")
}
