package vindex

import (
	"fmt"
	"math"

	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

// Subset returns an index over only the given Voronoi cells — the slice
// of the dataset one shard process serves. The subset keeps the FULL
// pivot set and pivot-distance matrix (routing math needs every
// hyperplane), shares the owned cells' object storage with the parent
// (the parent is immutable after Build/Load, so sharing is safe), and
// zeroes the summary rows of cells it does not own: PartitionLen
// reports 0 for them, the walk skips them, and StartKNN's starting bound
// never consults pivot-distance lists of objects the subset cannot
// return.
// Queries against a Subset are therefore exact over the objects it
// holds. Cells must be in range and free of duplicates.
func (ix *Index) Subset(cells []int) (*Index, error) {
	n := ix.pp.NumPartitions()
	own := make([]bool, n)
	for _, c := range cells {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("vindex: Subset: cell %d out of range [0,%d)", c, n)
		}
		if own[c] {
			return nil, fmt.Errorf("vindex: Subset: duplicate cell %d", c)
		}
		own[c] = true
	}
	sum := &voronoi.Summary{
		K: ix.sum.K,
		R: make([]voronoi.RSummary, n),
		S: make([]voronoi.SSummary, n),
	}
	blocks := make([]*vector.Block, n)
	size := 0
	for j := 0; j < n; j++ {
		if own[j] {
			sum.R[j] = ix.sum.R[j]
			sum.S[j] = ix.sum.S[j]
			blocks[j] = ix.blocks[j]
			size += ix.blocks[j].Len()
			continue
		}
		// Empty rows use the SummaryBuilder's empty-cell convention
		// (L=+Inf, U=−Inf) so every bound treats them exactly like a cell
		// that never received an object.
		sum.R[j] = voronoi.RSummary{L: math.Inf(1), U: math.Inf(-1)}
		sum.S[j] = voronoi.SSummary{L: math.Inf(1), U: math.Inf(-1)}
		blocks[j] = &vector.Block{}
	}
	return &Index{pp: ix.pp, sum: sum, blocks: blocks, size: size, opts: ix.opts}, nil
}

// MetaOnly returns a routing-only view of the index: the full pivot
// set, pivot-distance matrix and summary (so StartKNN, RangeWindows and
// the walks they return behave exactly as on the full index), but no
// object storage. The sharded router holds one of these — it decides
// which cells matter and delegates every scan, so it never pays the
// memory of the blocks. Scanning methods must not be called on it: the
// walk will direct scans at cells whose blocks are empty here.
func (ix *Index) MetaOnly() *Index {
	n := ix.pp.NumPartitions()
	blocks := make([]*vector.Block, n)
	for j := range blocks {
		blocks[j] = &vector.Block{}
	}
	return &Index{
		pp:     ix.pp,
		sum:    ix.sum,
		blocks: blocks,
		size:   ix.size,
		opts:   ix.opts,
	}
}
