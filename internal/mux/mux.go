// Package mux implements MuX, the multi-page index kNN join of Böhm and
// Krebs (DEXA'03; Knowl. Inf. Syst. 6(6), 2004) — references [2] and [3]
// of the paper, its earliest centralized lineage.
//
// MuX separates the two optimization goals a kNN join faces: I/O wants
// few large page reads, CPU wants small minimum bounding rectangles to
// prune against. The index therefore has two granularities — large
// "hosting pages", each holding many small "buckets" with tight MBRs.
// The join loops over R hosting pages; for each it visits S hosting
// pages in ascending MBR distance (stopping once no object in the R page
// can still improve), and inside a page it prunes bucket by bucket
// before touching objects.
//
// This implementation packs both levels with a recursive
// sort-tile-recursive pass, so the on-"disk" layout is spatially
// clustered exactly as MuX assumes. It is exact for every metric the
// repository supports.
package mux

import (
	"fmt"
	"math"
	"sort"

	"knnjoin/internal/codec"
	"knnjoin/internal/driver"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/vector"
)

// Options configures the MuX index geometry.
type Options struct {
	// Metric is the distance measure; default L2.
	Metric vector.Metric
	// BucketSize is the number of objects per CPU bucket. Default 32.
	BucketSize int
	// PageBuckets is the number of buckets per hosting page. Default 16
	// (≈512 objects per page at the default bucket size, the large-page
	// regime MuX argues for).
	PageBuckets int
}

func (o Options) withDefaults() (Options, error) {
	if o.BucketSize < 0 || o.PageBuckets < 0 {
		return o, fmt.Errorf("mux: negative geometry: bucket size %d, page buckets %d", o.BucketSize, o.PageBuckets)
	}
	if o.BucketSize == 0 {
		o.BucketSize = 32
	}
	if o.PageBuckets == 0 {
		o.PageBuckets = 16
	}
	return o, nil
}

// mbr is a minimum bounding rectangle.
type mbr struct {
	min, max vector.Point
}

func mbrOf(objs []codec.Object) mbr {
	m := mbr{min: objs[0].Point.Clone(), max: objs[0].Point.Clone()}
	for _, o := range objs[1:] {
		for d, v := range o.Point {
			if v < m.min[d] {
				m.min[d] = v
			}
			if v > m.max[d] {
				m.max[d] = v
			}
		}
	}
	return m
}

// gapTo writes the per-dimension gap between the rectangle and p into
// dst: zero inside the extent, else the distance to the nearer face.
func (m mbr) gapTo(dst vector.Point, p vector.Point) vector.Point {
	dst = dst[:0]
	for d, v := range p {
		switch {
		case v < m.min[d]:
			dst = append(dst, m.min[d]-v)
		case v > m.max[d]:
			dst = append(dst, v-m.max[d])
		default:
			dst = append(dst, 0)
		}
	}
	return dst
}

// gapToRect writes the per-dimension gap between two rectangles into dst.
func (m mbr) gapToRect(dst vector.Point, o mbr) vector.Point {
	dst = dst[:0]
	for d := range m.min {
		switch {
		case o.max[d] < m.min[d]:
			dst = append(dst, m.min[d]-o.max[d])
		case o.min[d] > m.max[d]:
			dst = append(dst, o.min[d]-m.max[d])
		default:
			dst = append(dst, 0)
		}
	}
	return dst
}

// bucket is the CPU-granularity unit: a tight MBR over few objects.
type bucket struct {
	mbr  mbr
	objs []codec.Object
}

// page is the I/O-granularity unit: a hosting page of buckets.
type page struct {
	mbr     mbr
	buckets []bucket
}

// Index is a MuX index: spatially packed hosting pages of buckets.
type Index struct {
	pages  []page
	metric vector.Metric
	size   int
	zero   vector.Point
}

// Build packs objs into a MuX index. An empty objs yields an empty index.
func Build(objs []codec.Object, opts Options) (*Index, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	ix := &Index{metric: opts.Metric, size: len(objs)}
	if len(objs) == 0 {
		return ix, nil
	}
	ix.zero = make(vector.Point, objs[0].Point.Dim())

	packed := append([]codec.Object(nil), objs...)
	strSort(packed, 0, opts.BucketSize)
	var buckets []bucket
	for lo := 0; lo < len(packed); lo += opts.BucketSize {
		hi := lo + opts.BucketSize
		if hi > len(packed) {
			hi = len(packed)
		}
		buckets = append(buckets, bucket{mbr: mbrOf(packed[lo:hi]), objs: packed[lo:hi]})
	}
	for lo := 0; lo < len(buckets); lo += opts.PageBuckets {
		hi := lo + opts.PageBuckets
		if hi > len(buckets) {
			hi = len(buckets)
		}
		pg := page{buckets: buckets[lo:hi], mbr: buckets[lo].mbr}
		pg.mbr.min = pg.mbr.min.Clone()
		pg.mbr.max = pg.mbr.max.Clone()
		for _, b := range buckets[lo+1 : hi] {
			for d := range pg.mbr.min {
				if b.mbr.min[d] < pg.mbr.min[d] {
					pg.mbr.min[d] = b.mbr.min[d]
				}
				if b.mbr.max[d] > pg.mbr.max[d] {
					pg.mbr.max[d] = b.mbr.max[d]
				}
			}
		}
		ix.pages = append(ix.pages, pg)
	}
	return ix, nil
}

// Len returns the number of indexed objects.
func (ix *Index) Len() int { return ix.size }

// Pages returns the number of hosting pages.
func (ix *Index) Pages() int { return len(ix.pages) }

// strSort orders objs spatially with a recursive sort-tile pass: sort by
// dimension d, cut into slabs sized so that the remaining dimensions can
// tile each slab down to the leaf size, recurse per slab.
func strSort(objs []codec.Object, d, leaf int) {
	if len(objs) <= leaf {
		return
	}
	dims := objs[0].Point.Dim()
	sort.SliceStable(objs, func(i, j int) bool { return objs[i].Point[d] < objs[j].Point[d] })
	if d == dims-1 {
		return // final dimension: chunking into leaves happens in Build
	}
	leaves := (len(objs) + leaf - 1) / leaf
	slabs := intRoot(leaves, dims-d)
	if slabs <= 1 {
		strSort(objs, d+1, leaf)
		return
	}
	per := (len(objs) + slabs - 1) / slabs
	for lo := 0; lo < len(objs); lo += per {
		hi := lo + per
		if hi > len(objs) {
			hi = len(objs)
		}
		strSort(objs[lo:hi], d+1, leaf)
	}
}

// intRoot returns ⌈n^(1/k)⌉ for small integers.
func intRoot(n, k int) int {
	if n <= 1 || k <= 1 {
		return n
	}
	r := 1
	for pow(r, k) < n {
		r++
	}
	return r
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
		if out < 0 || out > 1<<40 {
			return 1 << 40
		}
	}
	return out
}

// Join computes the exact kNN join of R against the S index with MuX's
// page-then-bucket pruning loop. It returns results ordered by R object
// ID and the number of distance computations.
func Join(rObjs, sObjs []codec.Object, k int, opts Options) ([]codec.Result, int64, error) {
	if k <= 0 {
		return nil, 0, fmt.Errorf("mux: k must be positive, got %d", k)
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, 0, err
	}
	if len(sObjs) == 0 || len(rObjs) == 0 {
		return nil, 0, nil
	}
	sIx, err := Build(sObjs, opts)
	if err != nil {
		return nil, 0, err
	}
	rIx, err := Build(rObjs, opts)
	if err != nil {
		return nil, 0, err
	}

	m := opts.Metric
	var pairs int64
	results := make([]codec.Result, 0, len(rObjs))
	gap := make(vector.Point, 0, rObjs[0].Point.Dim())

	type distPage struct {
		d  float64
		pg *page
	}
	type distBucket struct {
		d float64
		b *bucket
	}

	for rp := range rIx.pages {
		rPage := &rIx.pages[rp]
		var rs []codec.Object
		for i := range rPage.buckets {
			rs = append(rs, rPage.buckets[i].objs...)
		}
		heaps := make([]*nnheap.KHeap, len(rs))
		for i := range heaps {
			heaps[i] = nnheap.NewKHeap(k)
		}
		maxTheta := func() float64 {
			worst := 0.0
			for _, h := range heaps {
				if t := h.Threshold(maxFloat); t > worst {
					worst = t
					if t == maxFloat {
						break
					}
				}
			}
			return worst
		}

		// Visit S hosting pages in ascending MBR-to-MBR distance.
		order := make([]distPage, len(sIx.pages))
		for i := range sIx.pages {
			gap = rPage.mbr.gapToRect(gap, sIx.pages[i].mbr)
			order[i] = distPage{d: m.Dist(gap, sIx.zero), pg: &sIx.pages[i]}
		}
		sort.Slice(order, func(a, b int) bool { return order[a].d < order[b].d })

		for _, dp := range order {
			if dp.d > maxTheta() {
				break // no r in this page can improve from farther pages
			}
			// Inside the page, visit buckets nearest-first as well.
			border := make([]distBucket, len(dp.pg.buckets))
			for i := range dp.pg.buckets {
				gap = rPage.mbr.gapToRect(gap, dp.pg.buckets[i].mbr)
				border[i] = distBucket{d: m.Dist(gap, sIx.zero), b: &dp.pg.buckets[i]}
			}
			sort.Slice(border, func(a, b int) bool { return border[a].d < border[b].d })
			for _, db := range border {
				if db.d > maxTheta() {
					break
				}
				for i, r := range rs {
					gap = db.b.mbr.gapTo(gap, r.Point)
					if m.Dist(gap, sIx.zero) > heaps[i].Threshold(maxFloat) {
						continue
					}
					for _, s := range db.b.objs {
						pairs++
						heaps[i].Push(nnheap.Candidate{ID: s.ID, Dist: m.Dist(r.Point, s.Point)})
					}
				}
			}
		}

		for i, r := range rs {
			cands := heaps[i].Sorted()
			nbs := make([]codec.Neighbor, len(cands))
			for j, c := range cands {
				nbs[j] = codec.Neighbor{ID: c.ID, Dist: c.Dist}
			}
			results = append(results, codec.Result{RID: r.ID, Neighbors: nbs})
		}
	}
	driver.SortResults(results)
	return results, pairs, nil
}

// maxFloat is the pruning sentinel: any real distance beats it.
const maxFloat = math.MaxFloat64
