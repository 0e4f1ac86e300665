package vindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"knnjoin/internal/codec"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

// The on-disk format is a versioned little-endian binary stream:
//
//	magic "KNNVIDX1" | metric | boundK | numPivots
//	pivots (dim + coords each)
//	summary rows (R and S, with KDists)
//	partitions (count + Tagged records via codec)
//
// Everything an Index needs is self-contained, so Load rebuilds pivot
// distance matrices rather than storing the O(|P|²) matrix. A record's
// source and partition tags are redundant with its position — every
// record is an S object filed under its own partition — so Save writes
// them from the position and Load checks them.

var storeMagic = [8]byte{'K', 'N', 'N', 'V', 'I', 'D', 'X', '1'}

// Save writes the index to w in the versioned binary format. The values
// are appended little-endian to one buffer, handed to w 64 KiB at a
// time.
func (ix *Index) Save(w io.Writer) error {
	le := binary.LittleEndian
	appendF64 := func(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) }
	buf := make([]byte, 0, 80<<10)
	flush := func(atLeast int) error {
		if len(buf) < atLeast {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}

	buf = append(buf, storeMagic[:]...)
	buf = le.AppendUint32(buf, uint32(ix.opts.Metric))
	buf = le.AppendUint32(buf, uint32(ix.opts.BoundK))
	buf = le.AppendUint32(buf, uint32(ix.pp.NumPartitions()))
	// Pivots.
	for _, p := range ix.pp.Pivots {
		buf = le.AppendUint32(buf, uint32(p.Dim()))
		for _, v := range p {
			buf = appendF64(buf, v)
		}
		if err := flush(64 << 10); err != nil {
			return err
		}
	}
	// Summary rows.
	for i := 0; i < ix.pp.NumPartitions(); i++ {
		r, s := ix.sum.R[i], ix.sum.S[i]
		buf = le.AppendUint32(buf, uint32(r.Count))
		buf = appendF64(appendF64(buf, r.L), r.U)
		buf = le.AppendUint32(buf, uint32(s.Count))
		buf = appendF64(appendF64(buf, s.L), s.U)
		buf = le.AppendUint32(buf, uint32(len(s.KDists)))
		for _, d := range s.KDists {
			buf = appendF64(buf, d)
		}
		if err := flush(64 << 10); err != nil {
			return err
		}
	}
	// Partitions: a count, then each record behind its length.
	for j, blk := range ix.blocks {
		buf = le.AppendUint32(buf, uint32(blk.Len()))
		for x := range blk.IDs {
			buf = le.AppendUint32(buf, uint32(codec.TaggedLen(blk.Dim)))
			buf = codec.AppendTagged(buf, codec.Tagged{
				Object: codec.Object{ID: blk.IDs[x], Point: blk.At(x)},
				Src:    codec.FromS, Partition: int32(j), PivotDist: blk.PivotDist[x],
			})
			if err := flush(64 << 10); err != nil {
				return err
			}
		}
	}
	return flush(0)
}

// A CellSet names the Voronoi cells whose object records Load decodes.
// Load still reads every other cell's records and checks their framing
// — the record count, each record's length, truncation — but discards
// their bytes undecoded: they are validated by whichever process
// decodes them.
type CellSet struct {
	meta  bool  // decode no cell
	some  bool  // decode only cells
	cells []int // with some: the cells to decode
}

var (
	// AllCells decodes every cell: the whole index.
	AllCells = CellSet{}
	// NoCells decodes no cell: the routing-only view the sharded
	// router holds, with every pivot and summary row and no object
	// storage. Scanning methods must not be called on it: the walk
	// would direct scans at cells whose blocks are empty here.
	NoCells = CellSet{meta: true}
)

// OnlyCells decodes the listed cells only: the slice of the dataset one
// shard process serves. The index keeps the full pivot set and
// pivot-distance matrix (routing math needs every hyperplane) and
// zeroes the summary rows of the cells it does not name: PartitionLen
// reports 0 for them, the walk skips them, and StartKNN's starting
// bound never consults pivot-distance lists of objects the index
// cannot return. Queries are therefore exact over the objects it holds.
// The cells must be in range and free of duplicates.
func OnlyCells(cells []int) CellSet { return CellSet{some: true, cells: cells} }

// decodes returns, for a set over n cells, which cells to decode: nil
// for all of them.
func (c CellSet) decodes(n int) ([]bool, error) {
	switch {
	case c.meta:
		return make([]bool, n), nil
	case !c.some:
		return nil, nil
	}
	own := make([]bool, n)
	for _, j := range c.cells {
		if j < 0 || j >= n {
			return nil, fmt.Errorf("vindex: cell %d out of range [0,%d)", j, n)
		}
		if own[j] {
			return nil, fmt.Errorf("vindex: duplicate cell %d", j)
		}
		own[j] = true
	}
	return own, nil
}

// LoadFile reads an index file written by Save, decoding the cells sel
// names (all of them when sel is omitted) — the shared open/load/close
// path of every consumer that loads indexes from disk (knnindex,
// knnserve startup, the serve layer's /reload, the shard replicas).
func LoadFile(path string, sel ...CellSet) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	length := int64(-1) // a pipe or device does not know its length
	if st.Mode().IsRegular() {
		length = st.Size()
	}
	return load(f, length, sel)
}

// Load reads an index written by Save, decoding the cells sel names:
// every cell when sel is omitted, else the one CellSet given. A reader
// that reports its length (bytes.Reader, strings.Reader, bytes.Buffer)
// bounds every allocation Load makes by the bytes it has left, as
// LoadFile does with the file's size.
func Load(r io.Reader, sel ...CellSet) (*Index, error) {
	length := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		length = int64(l.Len())
	}
	return load(r, length, sel)
}

// minSummaryRow is the fewest bytes a pivot's summary row and partition
// count take in the file (counts, bounds and KDists length, no KDists).
const minSummaryRow = 4 + 16 + 4 + 16 + 4 + 4

// load is Load over an input of length bytes (−1: unknown).
func load(r io.Reader, length int64, sel []CellSet) (*Index, error) {
	cells := AllCells
	switch len(sel) {
	case 0:
	case 1:
		cells = sel[0]
	default:
		return nil, fmt.Errorf("vindex: Load takes one cell set, got %d", len(sel))
	}
	bufSize := 64 << 10
	if length >= 0 {
		bufSize = int(min(length, int64(bufSize)))
	}
	d := &decoder{br: bufio.NewReaderSize(r, bufSize), left: length}
	var magic [8]byte
	if err := d.full(magic[:]); err != nil {
		return nil, fmt.Errorf("vindex: reading magic: %w", err)
	}
	if magic != storeMagic {
		return nil, fmt.Errorf("vindex: bad magic %q (not an index file?)", magic)
	}

	metricRaw, err := d.u32()
	if err != nil {
		return nil, err
	}
	boundK, err := d.u32()
	if err != nil {
		return nil, err
	}
	numPivots, err := d.u32()
	if err != nil {
		return nil, err
	}
	if numPivots == 0 || numPivots > 1<<24 || !d.fits(int64(numPivots), 4+minSummaryRow) {
		return nil, fmt.Errorf("vindex: implausible pivot count %d", numPivots)
	}
	if boundK == 0 || boundK > 1<<20 {
		return nil, fmt.Errorf("vindex: implausible boundK %d", boundK)
	}
	metric := vector.Metric(metricRaw)
	if metric != vector.L2 && metric != vector.L1 && metric != vector.LInf {
		return nil, fmt.Errorf("vindex: unknown metric %d", metricRaw)
	}
	own, err := cells.decodes(int(numPivots))
	if err != nil {
		return nil, err
	}

	pivots := make([]vector.Point, numPivots)
	for i := range pivots {
		dim, err := d.u32()
		if err != nil {
			return nil, err
		}
		if dim > 1<<16 || !d.fits(int64(dim), 8) {
			return nil, fmt.Errorf("vindex: implausible dimensionality %d", dim)
		}
		if i > 0 && int(dim) != len(pivots[0]) {
			return nil, fmt.Errorf("vindex: pivot %d has %d dims, pivot 0 has %d", i, dim, len(pivots[0]))
		}
		p := make(vector.Point, dim)
		for x := range p {
			if p[x], err = d.f64(); err != nil {
				return nil, err
			}
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("vindex: pivot %d has a non-finite coordinate", i)
		}
		pivots[i] = p
	}
	dim := len(pivots[0])

	sum := &voronoi.Summary{
		K: int(boundK),
		R: make([]voronoi.RSummary, numPivots),
		S: make([]voronoi.SSummary, numPivots),
	}
	for i := 0; i < int(numPivots); i++ {
		cnt, err := d.u32()
		if err != nil {
			return nil, err
		}
		sum.R[i].Count = int(cnt)
		if sum.R[i].L, err = d.f64(); err != nil {
			return nil, err
		}
		if sum.R[i].U, err = d.f64(); err != nil {
			return nil, err
		}
		if cnt, err = d.u32(); err != nil {
			return nil, err
		}
		sum.S[i].Count = int(cnt)
		if sum.S[i].L, err = d.f64(); err != nil {
			return nil, err
		}
		if sum.S[i].U, err = d.f64(); err != nil {
			return nil, err
		}
		nk, err := d.u32()
		if err != nil {
			return nil, err
		}
		if nk > boundK {
			return nil, fmt.Errorf("vindex: partition %d has %d KDists > boundK %d", i, nk, boundK)
		}
		if !d.fits(int64(nk), 8) {
			return nil, fmt.Errorf("vindex: partition %d: %d KDists, %d bytes left", i, nk, d.left)
		}
		kd := make([]float64, nk)
		for j := range kd {
			if kd[j], err = d.f64(); err != nil {
				return nil, err
			}
		}
		sum.S[i].KDists = kd
	}

	// The format records no scan tier: each decoded block gets the one
	// its shape picks, exactly as Build gives it. A cell left undecoded
	// gets an empty block.
	blocks := make([]*vector.Block, numPivots)
	stored, size := 0, 0
	for i := range blocks {
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		if n > 1<<28 || !d.fits(int64(n), 4) {
			return nil, fmt.Errorf("vindex: implausible partition size %d", n)
		}
		stored += int(n)
		var blk *vector.Block
		if own == nil || own[i] {
			blk = presized(int(n), dim, d)
		}
		for x := 0; x < int(n); x++ {
			if err := d.record(blk, i, dim); err != nil {
				return nil, fmt.Errorf("vindex: partition %d record %d: %w", i, x, err)
			}
		}
		if blk == nil {
			blocks[i] = &vector.Block{}
			continue
		}
		blk.Prepare(vector.KernelAuto)
		blocks[i] = blk
		size += blk.Len()
	}
	if stored == 0 {
		return nil, fmt.Errorf("vindex: stored index is empty")
	}
	ix := &Index{
		pp:     voronoi.NewPartitioner(pivots, metric),
		sum:    sum,
		blocks: blocks,
		size:   size,
		opts:   Options{Metric: metric, NumPivots: int(numPivots), BoundK: int(boundK)},
	}
	switch {
	case cells.meta:
		ix.size = stored
	case own != nil:
		for j, mine := range own {
			if !mine {
				sum.R[j] = voronoi.RSummary{L: math.Inf(1), U: math.Inf(-1)}
				sum.S[j] = voronoi.SSummary{L: math.Inf(1), U: math.Inf(-1)}
			}
		}
	}
	return ix, nil
}

// presized returns an empty block with room for a partition's n stored
// rows of dim coordinates, so decoding it allocates once. The room is
// capped by what the input's remaining bytes can hold — every record
// takes its length and codec.TaggedLen(dim) bytes — so a damaged count
// cannot turn into a huge allocation; an input of unknown length caps
// it at 4096 rows, and a partition beyond the cap grows by append.
func presized(n, dim int, d *decoder) *vector.Block {
	rows := min(int64(n), 1<<12)
	if d.left >= 0 {
		rows = min(int64(n), d.left/int64(4+codec.TaggedLen(dim)))
	}
	return &vector.Block{
		Dim:       dim,
		IDs:       make([]int64, 0, rows),
		PivotDist: make([]float64, 0, rows),
		Coords:    make([]float64, 0, rows*int64(dim)),
	}
}

// decoder reads the index format's fixed-size little-endian values
// without reflection and counts the bytes the input has left.
type decoder struct {
	br   *bufio.Reader
	left int64 // input bytes not yet read; −1 when the length is unknown
	b    [8]byte
	rec  []byte // the record being decoded
}

// record reads one stored record of partition part: its length, then
// its bytes, decoded onto blk — or, with blk nil, discarded.
func (d *decoder) record(blk *vector.Block, part, dim int) error {
	rl, err := d.u32()
	if err != nil {
		return err
	}
	if rl > 1<<24 || !d.fits(int64(rl), 1) {
		return fmt.Errorf("implausible record length %d", rl)
	}
	if blk == nil {
		return d.skip(int(rl))
	}
	d.rec = slices.Grow(d.rec[:0], int(rl))[:rl]
	if err := d.full(d.rec); err != nil {
		return err
	}
	return appendRecord(blk, d.rec, part, dim)
}

// fits reports whether n items of size bytes each can still be in the
// input — always, when its length is unknown.
func (d *decoder) fits(n, size int64) bool { return d.left < 0 || n*size <= d.left }

func (d *decoder) consumed(n int) {
	if d.left >= 0 {
		d.left = max(d.left-int64(n), 0)
	}
}

// full fills p from the input: io.EOF when nothing was left,
// io.ErrUnexpectedEOF when p was filled only in part.
func (d *decoder) full(p []byte) error {
	n, err := io.ReadFull(d.br, p)
	d.consumed(n)
	return err
}

func (d *decoder) u32() (uint32, error) {
	err := d.full(d.b[:4])
	return binary.LittleEndian.Uint32(d.b[:4]), err
}

func (d *decoder) f64() (float64, error) {
	err := d.full(d.b[:8])
	return math.Float64frombits(binary.LittleEndian.Uint64(d.b[:8])), err
}

// skip discards n bytes of the input.
func (d *decoder) skip(n int) error {
	m, err := d.br.Discard(n)
	d.consumed(m)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// appendRecord decodes one stored record onto partition part's block and
// checks what Save writes from position and what the queries rely on: an
// S object of the partition it is filed under, with the pivots'
// dimensionality, finite coordinates and pivot distance, and a pivot
// distance no smaller than the previous row's — PivotDistWindow's binary
// search silently misses rows of an unordered block.
func appendRecord(blk *vector.Block, rec []byte, part, dim int) error {
	src, tag, err := codec.AppendTaggedToBlock(blk, rec)
	if err != nil {
		return err
	}
	x := blk.Len() - 1
	pd := blk.PivotDist[x]
	switch {
	case src != codec.FromS:
		return fmt.Errorf("source tag %v, want S", src)
	case int(tag) != part:
		return fmt.Errorf("tagged for partition %d", tag)
	case blk.Dim != dim:
		return fmt.Errorf("%d dims, the pivots have %d", blk.Dim, dim)
	case !blk.At(x).IsFinite() || math.IsNaN(pd) || math.IsInf(pd, 0):
		return fmt.Errorf("non-finite coordinate or pivot distance")
	case x > 0 && pd < blk.PivotDist[x-1]:
		return fmt.Errorf("pivot distance %v after %v: rows out of order", pd, blk.PivotDist[x-1])
	}
	return nil
}
