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
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

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

// Sample draws up to n objects uniformly, without replacement, from the
// named files of Tagged records: the files are read in the order given
// and, when they hold more than n objects, the first n of a permutation
// seeded with seed are kept, in that order. Fewer objects are returned
// whole.
func Sample(fs dfs.Store, n int, seed int64, names ...string) ([]codec.Object, error) {
	var all []codec.Object
	for _, name := range names {
		tagged, err := FromDFS(fs, name)
		if err != nil {
			return nil, err
		}
		for _, t := range tagged {
			all = append(all, t.Object)
		}
	}
	if n >= len(all) {
		return all, nil
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(all))[:n]
	out := make([]codec.Object, n)
	for i, j := range idx {
		out[i] = all[j]
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
// line and the object. A line of 1 MiB or more is bufio.ErrTooLong.
// Where the input has several faults, the error is the first by line.
//
// The input is read in blocks of about 1 MiB, each cut after its last
// newline, and the blocks are parsed on GOMAXPROCS goroutines: each
// into one coordinate array its objects' Points share, with no
// allocation per line. Only a few blocks of raw input are resident at
// once, and the objects come back in input order whatever the
// GOMAXPROCS.
func ReadCSV(r io.Reader) ([]codec.Object, error) {
	return readCSV(r, 1<<20)
}

// maxCSVLine bounds a line, its "\r" included and its "\n" not: a
// longer one is the error bufio.Scanner gives at its 1 MiB buffer.
const maxCSVLine = 1 << 20

// csvBlock is a run of whole input lines and what parsing them gave.
type csvBlock struct {
	raw  []byte // whole lines; the last lacks its "\n" only where reading stopped
	line int    // the number of raw's first line

	objs     []codec.Object
	firstObj int // the line of the block's first object; 0 if none
	dim      int // the dimensionality of that object
	err      error
}

// readCSV is ReadCSV reading blockSize bytes at a time.
func readCSV(r io.Reader, blockSize int) ([]codec.Object, error) {
	// A block's parse stops at its first fault, and once one has a
	// fault the blocks after it cannot change the result: failed stops
	// the reading.
	workers := runtime.GOMAXPROCS(0)
	// The raw buffers: one being filled and one per parsing worker, so
	// at most workers+1 blocks of input are resident.
	free := make(chan []byte, workers+1)
	for range cap(free) {
		free <- nil
	}
	todo := make(chan *csvBlock)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range todo {
				if b.parse(); b.err != nil {
					failed.Store(true)
				}
				free <- b.raw[:0]
				b.raw = nil
			}
		}()
	}

	// buf starts with the unfinished line the last read ended in.
	var blocks []*csvBlock
	buf := <-free
	line := 1
	var readErr error
	for done := false; !done && !failed.Load(); {
		from := len(buf)
		buf = slices.Grow(buf, blockSize)
		n, err := readFull(r, buf[from:from+blockSize])
		buf = buf[:from+n]
		cut := 0 // after the last newline; buf[:from] has none
		if i := bytes.LastIndexByte(buf[from:], '\n'); i >= 0 {
			cut = from + i + 1
		}
		switch {
		case err != nil:
			// Like bufio.Scanner, an input that ends or fails still
			// gives its last, unterminated line.
			done, cut = true, len(buf)
			if err != io.EOF {
				readErr = err
			}
		case cut == 0 && len(buf) >= maxCSVLine:
			// One line fills the buffer: send it to be reported as too
			// long, and read no further.
			done, cut = true, len(buf)
		case cut == 0:
			continue
		}
		b := &csvBlock{raw: buf[:cut], line: line}
		line += bytes.Count(b.raw, []byte{'\n'})
		blocks = append(blocks, b)
		next := append(<-free, buf[cut:]...)
		todo <- b
		buf = next
	}
	close(todo)
	wg.Wait()

	// Each block checked its objects against its own first one; the
	// first object of each block is checked against the input's here,
	// before the block's own fault, which can only come after it.
	dim, total := -1, 0
	for _, b := range blocks {
		if b.firstObj > 0 && dim >= 0 && b.dim != dim {
			return nil, fmt.Errorf("dataset: line %d: dimension %d differs from %d", b.firstObj, b.dim, dim)
		}
		if b.err != nil {
			return nil, b.err
		}
		if b.firstObj > 0 && dim < 0 {
			dim = b.dim
		}
		total += len(b.objs)
	}
	if readErr != nil {
		return nil, readErr
	}
	if total == 0 {
		return nil, nil
	}
	out := make([]codec.Object, 0, total)
	for _, b := range blocks {
		out = append(out, b.objs...)
	}
	return out, nil
}

// readFull reads into p until it is full or the input ends (io.EOF,
// whatever was read) or fails. Like bufio.Scanner it gives up with
// io.ErrNoProgress after 100 reads in a row that return nothing.
func readFull(r io.Reader, p []byte) (int, error) {
	n, empty := 0, 0
	for n < len(p) {
		m, err := r.Read(p[n:])
		n += m
		switch {
		case err != nil:
			return n, err
		case m > 0:
			empty = 0
		case empty == 99:
			return n, io.ErrNoProgress
		default:
			empty++
		}
	}
	return n, nil
}

// parse parses the block's lines, stopping at the first fault. The
// objects' coordinates go to one array, sized once the first object
// gives the dimensionality; each object's Point is a full slice of it.
func (b *csvBlock) parse() {
	var coords []float64
	var ids []int64
	rest := b.raw
	for line := b.line; len(rest) > 0; line++ {
		text, tail, _ := bytes.Cut(rest, []byte{'\n'})
		rest = tail
		if len(text) >= maxCSVLine {
			b.err = bufio.ErrTooLong
			return
		}
		text = bytes.TrimSpace(text)
		if len(text) == 0 {
			continue
		}
		idText, point, ok := bytes.Cut(text, []byte{','})
		if !ok {
			b.err = fmt.Errorf("dataset: line %d: need id,coords", line)
			return
		}
		id, err := strconv.ParseInt(string(bytes.TrimSpace(idText)), 10, 64)
		if err != nil {
			b.err = fmt.Errorf("dataset: line %d: bad id: %w", line, err)
			return
		}
		from := len(coords)
		if coords, err = vector.AppendParsed(coords, point); err != nil {
			b.err = fmt.Errorf("dataset: line %d: %w", line, err)
			return
		}
		p := vector.Point(coords[from:])
		if !p.IsFinite() {
			b.err = fmt.Errorf("dataset: line %d: object %d has a non-finite coordinate", line, id)
			return
		}
		if b.firstObj == 0 {
			b.dim, b.firstObj = p.Dim(), line
			lines := bytes.Count(rest, []byte{'\n'}) + 2
			coords = slices.Grow(coords, (lines-1)*b.dim)
			ids = make([]int64, 0, lines)
		} else if p.Dim() != b.dim {
			b.err = fmt.Errorf("dataset: line %d: dimension %d differs from %d", line, p.Dim(), b.dim)
			return
		}
		ids = append(ids, id)
	}
	b.objs = make([]codec.Object, len(ids))
	for i, id := range ids {
		b.objs[i] = codec.Object{ID: id, Point: coords[i*b.dim : (i+1)*b.dim : (i+1)*b.dim]}
	}
}
