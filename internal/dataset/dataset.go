// Package dataset provides the workloads of the paper's evaluation (§6)
// as synthetic, deterministic generators, plus dataset I/O.
//
// The paper evaluates on two real datasets we cannot ship:
//
//   - Forest CoverType (580K objects, 10 integer attributes used). We
//     generate a CoverType-like dataset: 10 integer attributes whose
//     marginal distributions mimic the cartographic variables, organized
//     into a handful of spatial clusters (cover types), with the last four
//     attributes deliberately low-variance — the property the paper uses
//     to explain Figure 10's flattening between 6 and 10 dimensions.
//   - OpenStreetMap (10M lon/lat records). We generate an OSM-like
//     dataset: a heavily skewed mixture of dense city clusters over a
//     sparse uniform background.
//
// The "Expanded Forest ×t" datasets are produced with the exact expansion
// algorithm of §6: per-dimension value-frequency ranking, each synthetic
// object taking the next-ranked value per dimension.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"knnjoin/internal/codec"
	"knnjoin/internal/dfs"
	"knnjoin/internal/vector"
)

// ForestDim is the dimensionality of the CoverType-like dataset.
const ForestDim = 10

// Forest generates n CoverType-like objects. Objects belong to one of
// seven latent "cover types" that shift the terrain attributes, giving the
// cluster structure Voronoi partitioning benefits from. Attributes 7–10
// (indexes 6–9) have low variance by construction.
func Forest(n int, seed int64) []codec.Object {
	rng := rand.New(rand.NewSource(seed))
	type cover struct {
		elev, hydro, road, fire float64
	}
	covers := []cover{
		{2000, 150, 800, 900},
		{2350, 250, 1500, 1200},
		{2650, 300, 2200, 1500},
		{2850, 200, 1700, 2200},
		{3000, 350, 2800, 1800},
		{3200, 180, 1200, 2600},
		{3400, 260, 3200, 3000},
	}
	clip := func(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }
	out := make([]codec.Object, n)
	for i := range out {
		c := covers[rng.Intn(len(covers))]
		p := make(vector.Point, ForestDim)
		// High-variance terrain attributes (dims 1–6 of the paper).
		p[0] = clip(c.elev+rng.NormFloat64()*180, 1850, 3860) // elevation
		p[1] = rng.Float64() * 360                            // aspect
		p[2] = rng.ExpFloat64() * c.hydro                     // horiz. dist. to hydrology
		p[3] = rng.ExpFloat64() * c.road                      // horiz. dist. to roadways
		p[4] = c.elev/30 - 45 + rng.NormFloat64()*58          // vert. dist. to hydrology
		p[5] = rng.ExpFloat64() * c.fire                      // horiz. dist. to fire points
		// Low-variance attributes (dims 7–10): hillshades and slope.
		p[6] = clip(212+rng.NormFloat64()*22, 0, 255) // hillshade 9am
		p[7] = clip(223+rng.NormFloat64()*16, 0, 255) // hillshade noon
		p[8] = clip(143+rng.NormFloat64()*28, 0, 255) // hillshade 3pm
		p[9] = clip(14+rng.NormFloat64()*6, 0, 60)    // slope
		for d := range p {
			p[d] = math.Round(p[d]) // CoverType attributes are integers
		}
		out[i] = codec.Object{ID: int64(i), Point: p}
	}
	return out
}

// Expand implements the §6 expansion: it returns a dataset of factor×len(base)
// objects preserving each dimension's value distribution. For every base
// object, factor−1 synthetic objects are created; the j-th replaces each
// coordinate with the value j positions after it in that dimension's
// frequency-ascending value ranking (staying at the last value when the
// ranking runs out, exactly as the paper specifies).
func Expand(base []codec.Object, factor int) []codec.Object {
	if factor <= 1 || len(base) == 0 {
		return append([]codec.Object(nil), base...)
	}
	dim := base[0].Point.Dim()
	// Per-dimension ranking of distinct values by ascending frequency,
	// ties by ascending value for determinism.
	nextRank := make([]map[float64]int, dim) // value → index in ranking
	rankings := make([][]float64, dim)
	for d := 0; d < dim; d++ {
		freq := make(map[float64]int)
		for _, o := range base {
			freq[o.Point[d]]++
		}
		vals := make([]float64, 0, len(freq))
		for v := range freq {
			vals = append(vals, v)
		}
		sort.Slice(vals, func(a, b int) bool {
			if freq[vals[a]] != freq[vals[b]] {
				return freq[vals[a]] < freq[vals[b]]
			}
			return vals[a] < vals[b]
		})
		idx := make(map[float64]int, len(vals))
		for i, v := range vals {
			idx[v] = i
		}
		rankings[d], nextRank[d] = vals, idx
	}

	out := make([]codec.Object, 0, len(base)*factor)
	var id int64
	for _, o := range base {
		out = append(out, codec.Object{ID: id, Point: o.Point.Clone()})
		id++
	}
	for j := 1; j < factor; j++ {
		for _, o := range base {
			p := make(vector.Point, dim)
			for d := 0; d < dim; d++ {
				rank := nextRank[d][o.Point[d]] + j
				if rank >= len(rankings[d]) {
					rank = len(rankings[d]) - 1 // paper: keep the value constant
				}
				p[d] = rankings[d][rank]
			}
			out = append(out, codec.Object{ID: id, Point: p})
			id++
		}
	}
	return out
}

// OSM generates n OSM-like 2-d records (longitude, latitude): 85% of the
// mass in a few hundred city clusters with Zipf-distributed sizes, the
// rest uniform background — the spatial skew that drives Figure 9.
func OSM(n int, seed int64) []codec.Object {
	rng := rand.New(rand.NewSource(seed))
	nCities := 200
	if n < nCities*4 {
		nCities = n/4 + 1
	}
	type city struct {
		lon, lat, spread float64
	}
	cities := make([]city, nCities)
	for i := range cities {
		cities[i] = city{
			lon:    rng.Float64()*360 - 180,
			lat:    rng.Float64()*170 - 85,
			spread: 0.05 + rng.ExpFloat64()*0.3,
		}
	}
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(nCities-1))
	out := make([]codec.Object, n)
	for i := range out {
		p := make(vector.Point, 2)
		if rng.Float64() < 0.85 {
			c := cities[zipf.Uint64()]
			p[0] = c.lon + rng.NormFloat64()*c.spread
			p[1] = c.lat + rng.NormFloat64()*c.spread
		} else {
			p[0] = rng.Float64()*360 - 180
			p[1] = rng.Float64()*170 - 85
		}
		out[i] = codec.Object{ID: int64(i), Point: p}
	}
	return out
}

// Gaussian generates n objects from a mixture of `clusters` spherical
// Gaussian blobs in dim dimensions: cluster centers are uniform in
// [0.15·scale, 0.85·scale]^dim and every cluster contributes roughly
// n/clusters points with the given per-coordinate standard deviation.
// stddev ≤ 0 selects scale/20. This is the "clustered" workload shape of
// the planner's evaluation: Voronoi partitioning thrives on it, and the
// intrinsic-dimensionality and skew estimates must tell it apart from
// uniform noise.
func Gaussian(n, dim, clusters int, stddev, scale float64, seed int64) []codec.Object {
	if clusters <= 0 {
		clusters = 8
	}
	if clusters > n {
		clusters = n
	}
	if stddev <= 0 {
		stddev = scale / 20
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, clusters)
	for c := range centers {
		ctr := make([]float64, dim)
		for d := range ctr {
			ctr[d] = (0.15 + 0.7*rng.Float64()) * scale
		}
		centers[c] = ctr
	}
	out := make([]codec.Object, n)
	for i := range out {
		ctr := centers[rng.Intn(clusters)]
		p := make(vector.Point, dim)
		for d := range p {
			p[d] = ctr[d] + rng.NormFloat64()*stddev
		}
		out[i] = codec.Object{ID: int64(i), Point: p}
	}
	return out
}

// Zipf generates n objects with Zipf-skewed density: `sites` anchor
// points uniform in [0, scale)^dim receive objects with rank-r
// probability ∝ 1/r^1.3 (the OSM generator's exponent), each object
// jittered around its site by a Gaussian of one third of the mean
// inter-site spacing. The first-ranked site ends up holding a large
// constant fraction of the data — the partition-size skew that breaks
// fixed-configuration joins and that the planner's ClusterSkew statistic
// must detect. sites ≤ 0 selects 64.
func Zipf(n, dim, sites int, scale float64, seed int64) []codec.Object {
	if sites <= 0 {
		sites = 64
	}
	if sites > n {
		sites = n
	}
	rng := rand.New(rand.NewSource(seed))
	anchors := make([][]float64, sites)
	for s := range anchors {
		a := make([]float64, dim)
		for d := range a {
			a[d] = rng.Float64() * scale
		}
		anchors[s] = a
	}
	var zipf *rand.Zipf
	if sites > 1 {
		zipf = rand.NewZipf(rng, 1.3, 1, uint64(sites-1))
	}
	spacing := scale / math.Pow(float64(sites), 1/float64(dim))
	out := make([]codec.Object, n)
	for i := range out {
		var site uint64
		if zipf != nil {
			site = zipf.Uint64()
		}
		a := anchors[site]
		p := make(vector.Point, dim)
		for d := range p {
			p[d] = a[d] + rng.NormFloat64()*spacing/3
		}
		out[i] = codec.Object{ID: int64(i), Point: p}
	}
	return out
}

// Uniform generates n objects uniform in [0, scale)^dim; the simplest
// workload for tests and micro-benchmarks.
func Uniform(n, dim int, scale float64, seed int64) []codec.Object {
	rng := rand.New(rand.NewSource(seed))
	out := make([]codec.Object, n)
	for i := range out {
		p := make(vector.Point, dim)
		for d := range p {
			p[d] = rng.Float64() * scale
		}
		out[i] = codec.Object{ID: int64(i), Point: p}
	}
	return out
}

// Project returns a copy of objs truncated to the first dim dimensions —
// how the dimensionality experiment (Figure 10) derives its 2–10d inputs.
func Project(objs []codec.Object, dim int) []codec.Object {
	out := make([]codec.Object, len(objs))
	for i, o := range objs {
		out[i] = codec.Object{ID: o.ID, Point: o.Point.Project(dim)}
	}
	return out
}

// Renumber returns a copy of objs with IDs 0..n-1 in slice order, for
// callers that subset or concatenate datasets.
func Renumber(objs []codec.Object) []codec.Object {
	out := make([]codec.Object, len(objs))
	for i, o := range objs {
		out[i] = codec.Object{ID: int64(i), Point: o.Point}
	}
	return out
}

// ToDFS stores objs in the filesystem under name, each record a Tagged
// object carrying the dataset tag. Partition −1 marks "not yet
// partitioned"; the first MapReduce job fills it in. The error is the
// store's — in-memory stores never fail, disk-backed ones can.
func ToDFS(fs dfs.Store, name string, objs []codec.Object, src codec.Source) error {
	recs := make([]dfs.Record, len(objs))
	for i, o := range objs {
		recs[i] = codec.EncodeTagged(codec.Tagged{Object: o, Src: src, Partition: -1})
	}
	return fs.Write(name, recs)
}

// FromDFS reads a file written by ToDFS (or produced by a partitioning
// job) back into tagged objects.
func FromDFS(fs dfs.Store, name string) ([]codec.Tagged, error) {
	recs, err := fs.Read(name)
	if err != nil {
		return nil, err
	}
	out := make([]codec.Tagged, len(recs))
	for i, r := range recs {
		t, err := codec.DecodeTagged(r)
		if err != nil {
			return nil, fmt.Errorf("dataset: record %d of %q: %w", i, name, err)
		}
		out[i] = t
	}
	return out, nil
}

// WriteCSV writes objects as "id,x1,x2,..." lines.
func WriteCSV(w io.Writer, objs []codec.Object) error {
	bw := bufio.NewWriter(w)
	for _, o := range objs {
		if _, err := fmt.Fprintf(bw, "%d,%s\n", o.ID, o.Point.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses objects written by WriteCSV. Blank lines are skipped.
// All objects must share one dimensionality, and every coordinate must
// be finite: strconv.ParseFloat accepts "NaN" and "Inf", which the
// pruning bounds cannot order, so the reader rejects them, naming the
// line and the object.
func ReadCSV(r io.Reader) ([]codec.Object, error) {
	var out []codec.Object
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	dim := -1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		idStr, rest, ok := strings.Cut(text, ",")
		if !ok {
			return nil, fmt.Errorf("dataset: line %d: need id,coords", line)
		}
		id, err := strconv.ParseInt(strings.TrimSpace(idStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad id: %w", line, err)
		}
		p, err := vector.Parse(rest)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("dataset: line %d: object %d has a non-finite coordinate", line, id)
		}
		if dim == -1 {
			dim = p.Dim()
		} else if p.Dim() != dim {
			return nil, fmt.Errorf("dataset: line %d: dimension %d differs from %d", line, p.Dim(), dim)
		}
		out = append(out, codec.Object{ID: id, Point: p})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
