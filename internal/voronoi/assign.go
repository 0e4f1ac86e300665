package voronoi

import (
	"fmt"
	"math"
	"slices"

	"knnjoin/internal/vector"
)

// Nearest-pivot assignment. The paper's job 1 compares every object
// with every pivot; AssignEvaluated returns the same answer from a
// fraction of the comparisons, by the bisector argument of Corollary 1
// turned on the pivots themselves: with some pivot p_o at distance d_o
// from the object and the best pivot so far at d_best, the triangle
// inequality gives |x,p_j| ≥ |p_o,p_j| − d_o, so every p_j with
// |p_o,p_j| > d_o + d_best is farther than the best and is never
// touched. The pivot–pivot matrix the grouping phase needs anyway is
// the only source of the tables the cut reads.
//
// The scan is one loop over lists of pivots. It starts on ⌈√|P|/2⌉
// landmark pivots, then walks the nearest-pivot list (ascending
// |p_o,p_j|) of the best pivot found, moving to a new best's list every
// nearHop entries while the best keeps changing — a descent into the
// object's neighbourhood — and ends at the first entry beyond the cut:
// the lists are sorted, so every later entry is beyond it too. A bitmap
// keeps any pivot from being evaluated twice, so evaluated ≤ |P| on
// every input.
//
// Exactness. The full scan this replaces compared true distances, i.e.
// after the square root, and took the lowest index among equals; sqrt
// is monotone but not injective on doubles, so two squared distances a
// few ulps apart can tie after it. Candidates are therefore ordered by
// (sqrt(sq), index) exactly: one is dismissed in squared space only
// when it exceeds tieHi, a bound no post-sqrt tie can exceed, and
// otherwise compared in true units. The cut is strict and one-sided: a
// relative slack (cutSlack) covers rounding in the computed distances,
// and the lists hold pivot–pivot distances as float32s rounded down and
// clamped to the float32 range, which covers the two ends of the double
// range — a distance whose square underflowed (an error of at most
// √dim·2⁻⁵³⁷) reads as 0 and one whose square overflowed to +Inf reads
// as 2¹²⁸, so neither is cut unless the object is provably nowhere
// near. Rounding can therefore only make the scan evaluate more
// pivots, never fewer, and an equal-distance pivot is never cut.
// Coordinates must be finite; the loaders (driver.CheckObjects,
// vindex.Build, internal/serve) reject the rest.
const (
	nearLen = 64 // entries a nearest-pivot list starts with
	nearHop = 4  // descent step: re-anchor after this many entries if the best moved

	// Computed distances carry a relative error below (dim+6)·2⁻⁵³; the
	// cut compares three of them, so 2⁻³⁰ covers millions of dimensions.
	cutSlack = 1 + 0x1p-30
	// Two squares whose roots round to the same double differ by less
	// than 2⁻⁵⁰ relatively.
	tieSlack = 1 + 0x1p-40
)

// neighbour is one entry of a nearest-pivot list: the pivot–pivot
// distance as a float32 — rounded down, +Inf clamped to the largest
// finite value — in the high word, the pivot index in the low word, so
// that plain integer order is (distance, index) order and a list costs
// 8 bytes an entry. Rounding down keeps the cut one-sided: stored > cut
// implies true > cut.
type neighbour uint64

func makeNeighbour(idx int, pd float64) neighbour {
	f := float32(min(pd, math.MaxFloat32))
	if float64(f) > pd {
		f = math.Nextafter32(f, 0)
	}
	return neighbour(math.Float32bits(f))<<32 | neighbour(uint32(idx))
}

func (nb neighbour) idx() int      { return int(uint32(nb)) }
func (nb neighbour) dist() float64 { return float64(math.Float32frombits(uint32(nb >> 32))) }

// Assign returns the index of the pivot closest to pt and the distance to
// it. Distance ties break to the lower pivot index, which is the
// deterministic stand-in for the paper's footnote-1 rule ("assign to the
// partition with the smallest number of objects"): a distributed mapper
// cannot see global partition sizes, so any deterministic rule serves; the
// correctness of the join never depends on tie placement.
//
// The caller is charged len(Pivots) distance computations — the cost of
// the paper's algorithm, the numerator of Equation 13 and what the
// planner prices — whatever the pruned scan actually evaluated; pass a
// non-nil distCount to accumulate them for selectivity accounting.
// AssignEvaluated reports the evaluated count.
func (p *Partitioner) Assign(pt vector.Point, distCount *int64) (int, float64) {
	part, d, _ := p.AssignEvaluated(pt)
	if distCount != nil {
		*distCount += int64(len(p.Pivots))
	}
	return part, d
}

// AssignEvaluated is Assign plus the number of object–pivot distances
// the scan actually computed (1 ≤ evaluated ≤ len(Pivots)). It keeps no
// state between calls, so the count is a function of (pt, pivots) alone,
// and any number of goroutines may share one Partitioner.
func (p *Partitioner) AssignEvaluated(pt vector.Point) (part int, dist float64, evaluated int) {
	if len(pt) != p.dim {
		panic(fmt.Sprintf("vector: dimension mismatch %d vs %d", len(pt), p.dim))
	}
	var stack [32]uint64
	seen := stack[:] // bitmap of evaluated pivots
	if w := (len(p.Pivots) + 63) / 64; w > len(stack) {
		seen = make([]uint64, w)
	}
	l2, dim, flat := p.Metric == vector.L2, p.dim, p.flat
	best, bestD := -1, math.Inf(1)
	tieHi := math.Inf(1) // order-space bound above which no candidate can tie the best
	anchor, dA, cut := -1, 0.0, math.Inf(1)
	list, from := p.landmarks, 0 // landmark entries carry distance 0: never cut
	for {
		for k, nb := range list[from:] {
			if nb.dist() > cut {
				// Exact: every pivot not yet seen is farther than the best.
				return best, bestD, evaluated
			}
			if k%nearHop == 0 && best != anchor && anchor >= 0 {
				break
			}
			j := nb.idx()
			w, bit := uint(j)>>6, uint64(1)<<(uint(j)&63)
			if w >= uint(len(seen)) || seen[w]&bit != 0 {
				// Already evaluated. (The range test never fires — list entries
				// are pivot indexes — and spares the loop a bounds check.)
				continue
			}
			seen[w] |= bit
			evaluated++
			row := flat[j*dim : j*dim+dim]
			// v orders candidates: squared under L2 — the sqDistL2 sum
			// Metric.Dist takes the root of, bit for bit — true units otherwise.
			var v float64
			if l2 {
				v = vector.SqDist(pt, row)
			} else {
				v = p.Metric.Dist(pt, row)
			}
			if v > tieHi {
				continue
			}
			d := v
			if l2 {
				d = math.Sqrt(v) //lint:allow sqrtfree: only for a candidate that beats or may tie the best, a handful per object; the cut and the returned distance are in true units
			}
			if d < bestD || (d == bestD && j < best) || best < 0 {
				best, bestD, tieHi = j, d, v*tieSlack
				cut = (dA + bestD) * cutSlack
			}
		}
		switch {
		case best != anchor: // descend: walk the new best's neighbourhood
			anchor, dA, cut = best, bestD, 2*bestD*cutSlack
			list, from = p.nearest(anchor, nearLen), 0
		case len(list) < len(p.Pivots)-1: // the cut reaches past the entries kept
			from = len(list)
			list = p.nearest(anchor, 4*len(list))
		default:
			return best, bestD, evaluated
		}
	}
}

// nearest returns at least the first want entries (all, when fewer
// exist) of pivot o's other pivots in ascending (distance, index) order.
// Lists are built on first use — a join's three Partitioners and a loaded
// index each pay only for the pivots their objects land near — and kept
// at nearLen entries unless a walk needed the whole row. A longer list
// extends a shorter one, so the walk order, and with it the evaluated
// count, does not depend on what was built before; racing builders
// compute equal lists and the longest stored wins.
func (p *Partitioner) nearest(o, want int) []neighbour {
	want = min(want, len(p.Pivots)-1)
	for {
		old := p.near[o].Load()
		if old != nil && len(*old) >= want {
			return *old
		}
		all := make([]neighbour, 0, len(p.Pivots)-1)
		for j, pd := range p.pivotDist[o] {
			if j != o {
				all = append(all, makeNeighbour(j, pd))
			}
		}
		if want < len(all) {
			selectSmallest(all, want)
		}
		list := slices.Clone(all[:want])
		slices.Sort(list)
		if p.near[o].CompareAndSwap(old, &list) {
			return list
		}
	}
}

// selectSmallest rearranges a so that its k smallest entries occupy
// a[:k], in no particular order (quickselect, Hoare partition): a list
// keeps 64 of several hundred entries, and selecting them first makes
// building it several times cheaper than sorting the row. Entries are
// distinct — the pivot index is part of each.
func selectSmallest(a []neighbour, k int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		pivot := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] ≤ pivot ≤ a[i..hi], and anything between is the pivot.
		switch {
		case k <= j+1:
			hi = j
		case k > i:
			lo = i
		default:
			return
		}
	}
}
