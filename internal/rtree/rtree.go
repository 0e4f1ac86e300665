// Package rtree provides an STR-bulk-loaded R-tree with best-first kNN
// search. It exists for the H-BRJ baseline (§3, §6): each H-BRJ reducer
// indexes its S-block with an R-tree and answers kNN queries for every r
// it received, exactly as the comparison system of Zhang et al. does.
package rtree

import (
	"math"
	"sort"

	"knnjoin/internal/codec"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/vector"
)

// DefaultFanout is the default maximum number of entries per node.
const DefaultFanout = 32

// Rect is an axis-aligned minimum bounding rectangle.
type Rect struct {
	Min, Max vector.Point
}

// newRectFor returns the degenerate rectangle covering a single point.
func newRectFor(p vector.Point) Rect {
	return Rect{Min: p.Clone(), Max: p.Clone()}
}

// extend grows r to cover other.
func (r *Rect) extend(other Rect) {
	for d := range r.Min {
		r.Min[d] = math.Min(r.Min[d], other.Min[d])
		r.Max[d] = math.Max(r.Max[d], other.Max[d])
	}
}

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p vector.Point) bool {
	for d := range p {
		if p[d] < r.Min[d] || p[d] > r.Max[d] {
			return false
		}
	}
	return true
}

// MinDist returns the smallest possible distance from p to any point of r
// under the metric — the standard R-tree MINDIST bound that makes
// best-first search correct.
func (r Rect) MinDist(p vector.Point, m vector.Metric) float64 {
	gap := make(vector.Point, len(p))
	for d := range p {
		switch {
		case p[d] < r.Min[d]:
			gap[d] = r.Min[d] - p[d]
		case p[d] > r.Max[d]:
			gap[d] = p[d] - r.Max[d]
		}
	}
	zero := make(vector.Point, len(p))
	return m.Dist(gap, zero)
}

type node struct {
	rect     Rect
	leaf     bool
	children []*node
	entries  []codec.Object
}

// Tree is an immutable, bulk-loaded R-tree over a set of objects.
type Tree struct {
	root   *node
	metric vector.Metric
	size   int
	fanout int

	// DistCount accumulates object-distance computations performed by
	// queries, feeding the paper's computation-selectivity measure. MBR
	// MINDIST evaluations are charged too: the paper counts "object pairs
	// to be computed ... including the pivots in our case", and for H-BRJ
	// index probes are the analogous bookkeeping cost.
	DistCount int64
}

// Options configures tree construction.
type Options struct {
	Metric vector.Metric // zero value is L2
	Fanout int           // ≤ 0 selects DefaultFanout
}

// Bulk builds a tree from objs using Sort-Tile-Recursive packing. The
// input slice is not retained; objs may be reused by the caller.
func Bulk(objs []codec.Object, opts Options) *Tree {
	fanout := opts.Fanout
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if fanout < 2 {
		fanout = 2
	}
	t := &Tree{metric: opts.Metric, size: len(objs), fanout: fanout}
	if len(objs) == 0 {
		return t
	}
	cp := make([]codec.Object, len(objs))
	copy(cp, objs)
	leaves := packLeaves(cp, fanout)
	t.root = buildUpper(leaves, fanout)
	return t
}

// packLeaves tiles the objects into leaves of ≤ fanout entries using STR:
// recursively sort by each dimension and slice into equal tiles.
func packLeaves(objs []codec.Object, fanout int) []*node {
	dim := objs[0].Point.Dim()
	var leaves []*node
	var tile func(part []codec.Object, d int)
	tile = func(part []codec.Object, d int) {
		if len(part) <= fanout {
			n := &node{leaf: true, entries: part, rect: newRectFor(part[0].Point)}
			for _, o := range part[1:] {
				n.rect.extend(newRectFor(o.Point))
			}
			leaves = append(leaves, n)
			return
		}
		if d < dim {
			sort.Slice(part, func(a, b int) bool { return part[a].Point[d] < part[b].Point[d] })
		}
		// Number of slabs along this dimension: the STR rule uses the
		// (dim−d)-th root of the number of leaves still needed.
		leavesNeeded := (len(part) + fanout - 1) / fanout
		slabs := int(math.Ceil(math.Pow(float64(leavesNeeded), 1/float64(dim-min(d, dim-1)))))
		if slabs < 2 {
			slabs = 2
		}
		per := (len(part) + slabs - 1) / slabs
		for i := 0; i < len(part); i += per {
			end := i + per
			if end > len(part) {
				end = len(part)
			}
			next := d + 1
			if next >= dim {
				next = dim // sentinel: no further sorting, just chop
			}
			tile(part[i:end], next)
		}
	}
	tile(objs, 0)
	return leaves
}

// buildUpper packs nodes level by level until one root remains.
func buildUpper(level []*node, fanout int) *node {
	for len(level) > 1 {
		var next []*node
		for i := 0; i < len(level); i += fanout {
			end := i + fanout
			if end > len(level) {
				end = len(level)
			}
			n := &node{children: level[i:end:end], rect: level[i].rect}
			n.rect = Rect{Min: level[i].rect.Min.Clone(), Max: level[i].rect.Max.Clone()}
			for _, c := range level[i+1 : end] {
				n.rect.extend(c.rect)
			}
			next = append(next, n)
		}
		level = next
	}
	return level[0]
}

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.size }

// KNN returns the k nearest objects to q in ascending distance order
// (ties by ID), using best-first traversal. Fewer than k objects are
// returned when the tree is smaller than k.
func (t *Tree) KNN(q vector.Point, k int) []nnheap.Candidate {
	if t.root == nil || k <= 0 {
		return nil
	}
	best := nnheap.NewKHeapAmong(k, t.size)
	var pq nnheap.MinHeap
	pq.Push(nnheap.MinItem{Priority: t.root.rect.MinDist(q, t.metric), Payload: t.root})
	t.DistCount++
	for pq.Len() > 0 {
		it := pq.Pop()
		if best.Full() && it.Priority > best.Top().Dist {
			break // everything remaining is farther than the k-th best
		}
		n := it.Payload.(*node)
		if n.leaf {
			for _, o := range n.entries {
				d := t.metric.Dist(q, o.Point)
				t.DistCount++
				best.Push(nnheap.Candidate{ID: o.ID, Dist: d})
			}
			continue
		}
		for _, c := range n.children {
			md := c.rect.MinDist(q, t.metric)
			t.DistCount++
			if !best.Full() || md <= best.Top().Dist {
				pq.Push(nnheap.MinItem{Priority: md, Payload: c})
			}
		}
	}
	return best.Sorted()
}

// Range returns all objects within distance radius of q, in ID order.
func (t *Tree) Range(q vector.Point, radius float64) []codec.Object {
	if t.root == nil {
		return nil
	}
	var out []codec.Object
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			for _, o := range n.entries {
				t.DistCount++
				if t.metric.Dist(q, o.Point) <= radius {
					out = append(out, o)
				}
			}
			return
		}
		for _, c := range n.children {
			t.DistCount++
			if c.rect.MinDist(q, t.metric) <= radius {
				walk(c)
			}
		}
	}
	walk(t.root)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Height returns the number of levels (0 for an empty tree), exposed for
// tests and diagnostics.
func (t *Tree) Height() int {
	h, n := 0, t.root
	for n != nil {
		h++
		if n.leaf {
			break
		}
		n = n.children[0]
	}
	return h
}
