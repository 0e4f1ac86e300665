package knnjoin

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"knnjoin/internal/dataset"
	"knnjoin/internal/rangejoin"
	"knnjoin/internal/vector"
)

// gapCutInput is one seeded self-join input of TestGapCutJoins.
type gapCutInput struct {
	name      string
	objs      []Object
	k         int
	numPivots int // 0: the default
	seed      int64
	// knnLoss and rangeLoss mark the two inputs on which a bound's
	// exact comparison rounds the wrong way on a tie, a known defect with
	// or without the gap pre-check: there the joins are pinned, not
	// compared with BruteForce. On the collinear 1-d input Algorithm 1's
	// θ rounds one ulp below a true k-th distance and the Theorem-2
	// window drops that neighbour. On the integer grid at radius 1,
	// Corollary 1 computes (5 − 1)/4 as 1.0000000000000002 for a row
	// whose partner lies at distance exactly 1, on the bisector, and
	// prunes its cell.
	knnLoss, rangeLoss bool
}

func gapCutInputs() []gapCutInput {
	rng := rand.New(rand.NewSource(14))
	piles := make([]Object, 400) // duplicate piles: random pivots repeat too
	base := dataset.Uniform(25, 3, 100, 15)
	for i := range piles {
		piles[i] = Object{ID: int64(i), Point: base[rng.Intn(len(base))].Point.Clone()}
	}
	grid := make([]Object, 400) // an integer grid: distances tie everywhere
	for i := range grid {
		grid[i] = Object{ID: int64(i), Point: vector.Point{float64(rng.Intn(6)), float64(rng.Intn(6)), float64(rng.Intn(6))}}
	}
	const collinear = -1089485791055524437
	return []gapCutInput{
		{name: "uniform", objs: dataset.Uniform(400, 4, 100, 11), k: 5, seed: 1},
		{name: "gaussian", objs: dataset.Gaussian(400, 3, 5, 0.05, 100, 12), k: 5, seed: 1},
		{name: "zipf", objs: dataset.Zipf(400, 2, 16, 100, 13), k: 5, seed: 1},
		{name: "duplicate-piles", objs: piles, k: 5, seed: 1},
		{name: "integer-grid", objs: grid, k: 5, seed: 1, rangeLoss: true},
		{name: "collinear-1d", objs: dataset.Uniform(120, 1, 100, collinear), k: 7, numPivots: 21, seed: collinear, knnLoss: true},
	}
}

// The reducers decide cells from the pivot gap before computing |r,p_j|
// and stop a batch at the first cell Corollary 1 rules out for every
// row. That moves no answer and no charged count: PGBJ, PBJ and the
// range join match BruteForce on uniform, clustered, skewed and tied
// inputs, and their pairs and output digests at 1 and 4 nodes are the
// ones recorded before the pre-check existed.
func TestGapCutJoins(t *testing.T) {
	var b strings.Builder
	for _, in := range gapCutInputs() {
		want, _, err := Join(in.objs, in.objs, Options{K: in.k, Algorithm: BruteForce})
		if err != nil {
			t.Fatal(err)
		}
		kth := make([]float64, len(want))
		for i, res := range want {
			kth[i] = res.Neighbors[len(res.Neighbors)-1].Dist
		}
		slices.Sort(kth)
		radius := kth[len(kth)/2]
		wantRange := rangejoin.BruteForce(in.objs, in.objs, radius, vector.L2)
		for _, nodes := range []int{1, 4} {
			for _, alg := range []Algorithm{PGBJ, PBJ} {
				got, st, err := Join(in.objs, in.objs, Options{K: in.k, Algorithm: alg, Nodes: nodes, NumPivots: in.numPivots, Seed: in.seed})
				if err != nil {
					t.Fatalf("%s %v nodes=%d: %v", in.name, alg, nodes, err)
				}
				if !in.knnLoss {
					t.Run(fmt.Sprintf("%s/%v/nodes=%d", in.name, alg, nodes), func(t *testing.T) { assertAgree(t, got, want) })
				}
				fmt.Fprintf(&b, "%s %v nodes=%d pairs=%d out=%016x\n", in.name, alg, nodes, st.Pairs, digestResults(got))
			}
			got, st, err := RangeJoin(in.objs, in.objs, RangeOptions{Radius: radius, Nodes: nodes, NumPivots: in.numPivots, Seed: in.seed})
			if err != nil {
				t.Fatalf("%s range nodes=%d: %v", in.name, nodes, err)
			}
			if !in.rangeLoss && digestResults(got) != digestResults(wantRange) {
				t.Errorf("%s range join at radius %v, nodes=%d: output differs from BruteForce", in.name, radius, nodes)
			}
			fmt.Fprintf(&b, "%s range nodes=%d pairs=%d out=%016x\n", in.name, nodes, st.Pairs, digestResults(got))
		}
	}
	got, want := strings.Split(b.String(), "\n"), strings.Split(gapCutWant, "\n")
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("pairs or outputs moved at line %d; got\n%s", i+1, b.String())
		}
	}
}

// digestResults hashes every row's id and every neighbour's id and
// distance bits.
func digestResults(rs []Result) uint64 {
	h := fnv.New64a()
	for _, r := range rs {
		fmt.Fprintf(h, "%d:", r.RID)
		for _, nb := range r.Neighbors {
			fmt.Fprintf(h, "%d/%x,", nb.ID, math.Float64bits(nb.Dist))
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// gapCutWant was recorded before the reducers had the gap pre-check.
const gapCutWant = `uniform pgbj nodes=1 pairs=72343 out=419119e5a3e6da8a
uniform pbj nodes=1 pairs=72343 out=419119e5a3e6da8a
uniform range nodes=1 pairs=69816 out=0df334670ff72c52
uniform pgbj nodes=4 pairs=72343 out=419119e5a3e6da8a
uniform pbj nodes=4 pairs=85093 out=419119e5a3e6da8a
uniform range nodes=4 pairs=68803 out=0df334670ff72c52
gaussian pgbj nodes=1 pairs=63814 out=0dde597530bed8f2
gaussian pbj nodes=1 pairs=63814 out=0dde597530bed8f2
gaussian range nodes=1 pairs=61132 out=edff8722bcd9fa80
gaussian pgbj nodes=4 pairs=54799 out=0dde597530bed8f2
gaussian pbj nodes=4 pairs=72116 out=0dde597530bed8f2
gaussian range nodes=4 pairs=51907 out=edff8722bcd9fa80
zipf pgbj nodes=1 pairs=59062 out=f7cc88ce4b156b0d
zipf pbj nodes=1 pairs=59062 out=f7cc88ce4b156b0d
zipf range nodes=1 pairs=58599 out=dc287cb43deda537
zipf pgbj nodes=4 pairs=57857 out=f7cc88ce4b156b0d
zipf pbj nodes=4 pairs=66319 out=f7cc88ce4b156b0d
zipf range nodes=4 pairs=55198 out=dc287cb43deda537
duplicate-piles pgbj nodes=1 pairs=54112 out=86679810a50aed69
duplicate-piles pbj nodes=1 pairs=54112 out=86679810a50aed69
duplicate-piles range nodes=1 pairs=48074 out=bdb5e0ab16f03ba2
duplicate-piles pgbj nodes=4 pairs=52214 out=86679810a50aed69
duplicate-piles pbj nodes=4 pairs=68418 out=86679810a50aed69
duplicate-piles range nodes=4 pairs=44060 out=bdb5e0ab16f03ba2
integer-grid pgbj nodes=1 pairs=64766 out=299352912e8a9793
integer-grid pbj nodes=1 pairs=64766 out=299352912e8a9793
integer-grid range nodes=1 pairs=64847 out=c0881ab891c287cb
integer-grid pgbj nodes=4 pairs=64766 out=299352912e8a9793
integer-grid pbj nodes=4 pairs=75153 out=2a6549a704a2d4c6
integer-grid range nodes=4 pairs=62168 out=c0881ab891c287cb
collinear-1d pgbj nodes=1 pairs=9934 out=c2560dcd3d6aeeb1
collinear-1d pbj nodes=1 pairs=9934 out=c2560dcd3d6aeeb1
collinear-1d range nodes=1 pairs=9196 out=95a21cd5c658f140
collinear-1d pgbj nodes=4 pairs=8885 out=c2560dcd3d6aeeb1
collinear-1d pbj nodes=4 pairs=11626 out=3cd6884023c171d6
collinear-1d range nodes=4 pairs=7963 out=95a21cd5c658f140
`
