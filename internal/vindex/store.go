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

// Save writes the index to w in the versioned binary format.
func (ix *Index) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(storeMagic[:]); err != nil {
		return err
	}
	writeU32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	writeF64 := func(v float64) { binary.Write(bw, binary.LittleEndian, math.Float64bits(v)) }

	writeU32(uint32(ix.opts.Metric))
	writeU32(uint32(ix.opts.BoundK))
	writeU32(uint32(ix.pp.NumPartitions()))

	// Pivots.
	for _, p := range ix.pp.Pivots {
		writeU32(uint32(p.Dim()))
		for _, v := range p {
			writeF64(v)
		}
	}
	// Summary rows.
	for i := 0; i < ix.pp.NumPartitions(); i++ {
		r := ix.sum.R[i]
		writeU32(uint32(r.Count))
		writeF64(r.L)
		writeF64(r.U)
		s := ix.sum.S[i]
		writeU32(uint32(s.Count))
		writeF64(s.L)
		writeF64(s.U)
		writeU32(uint32(len(s.KDists)))
		for _, d := range s.KDists {
			writeF64(d)
		}
	}
	// Partitions.
	for j, blk := range ix.blocks {
		writeU32(uint32(blk.Len()))
		for x := range blk.IDs {
			rec := codec.EncodeTagged(codec.Tagged{
				Object: codec.Object{ID: blk.IDs[x], Point: blk.At(x)},
				Src:    codec.FromS, Partition: int32(j), PivotDist: blk.PivotDist[x],
			})
			writeU32(uint32(len(rec)))
			if _, err := bw.Write(rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadFile reads an index file written by Save — the shared open/load/
// close path of every consumer that loads indexes from disk (knnindex,
// knnserve startup, the serve layer's /reload).
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Load reads an index written by Save.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("vindex: reading magic: %w", err)
	}
	if magic != storeMagic {
		return nil, fmt.Errorf("vindex: bad magic %q (not an index file?)", magic)
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	readF64 := func() (float64, error) {
		var v uint64
		err := binary.Read(br, binary.LittleEndian, &v)
		return math.Float64frombits(v), err
	}

	metricRaw, err := readU32()
	if err != nil {
		return nil, err
	}
	boundK, err := readU32()
	if err != nil {
		return nil, err
	}
	numPivots, err := readU32()
	if err != nil {
		return nil, err
	}
	if numPivots == 0 || numPivots > 1<<24 {
		return nil, fmt.Errorf("vindex: implausible pivot count %d", numPivots)
	}
	if boundK == 0 || boundK > 1<<20 {
		return nil, fmt.Errorf("vindex: implausible boundK %d", boundK)
	}
	metric := vector.Metric(metricRaw)
	if metric != vector.L2 && metric != vector.L1 && metric != vector.LInf {
		return nil, fmt.Errorf("vindex: unknown metric %d", metricRaw)
	}

	pivots := make([]vector.Point, numPivots)
	for i := range pivots {
		dim, err := readU32()
		if err != nil {
			return nil, err
		}
		if dim > 1<<16 {
			return nil, fmt.Errorf("vindex: implausible dimensionality %d", dim)
		}
		p := make(vector.Point, dim)
		for d := range p {
			if p[d], err = readF64(); err != nil {
				return nil, err
			}
		}
		pivots[i] = p
	}

	sum := &voronoi.Summary{
		K: int(boundK),
		R: make([]voronoi.RSummary, numPivots),
		S: make([]voronoi.SSummary, numPivots),
	}
	for i := 0; i < int(numPivots); i++ {
		cnt, err := readU32()
		if err != nil {
			return nil, err
		}
		sum.R[i].Count = int(cnt)
		if sum.R[i].L, err = readF64(); err != nil {
			return nil, err
		}
		if sum.R[i].U, err = readF64(); err != nil {
			return nil, err
		}
		if cnt, err = readU32(); err != nil {
			return nil, err
		}
		sum.S[i].Count = int(cnt)
		if sum.S[i].L, err = readF64(); err != nil {
			return nil, err
		}
		if sum.S[i].U, err = readF64(); err != nil {
			return nil, err
		}
		nk, err := readU32()
		if err != nil {
			return nil, err
		}
		if nk > boundK {
			return nil, fmt.Errorf("vindex: partition %d has %d KDists > boundK %d", i, nk, boundK)
		}
		kd := make([]float64, nk)
		for j := range kd {
			if kd[j], err = readF64(); err != nil {
				return nil, err
			}
		}
		sum.S[i].KDists = kd
	}

	// The format records no scan tier: each loaded block gets the one
	// its shape picks, exactly as Build gives it.
	blocks := make([]*vector.Block, numPivots)
	size := 0
	var rec []byte
	for i := range blocks {
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if n > 1<<28 {
			return nil, fmt.Errorf("vindex: implausible partition size %d", n)
		}
		blk := &vector.Block{}
		for x := 0; x < int(n); x++ {
			rl, err := readU32()
			if err != nil {
				return nil, err
			}
			if rl > 1<<24 {
				return nil, fmt.Errorf("vindex: implausible record length %d", rl)
			}
			rec = slices.Grow(rec[:0], int(rl))[:rl]
			if _, err := io.ReadFull(br, rec); err != nil {
				return nil, err
			}
			if err := appendRecord(blk, rec, i, len(pivots[0])); err != nil {
				return nil, fmt.Errorf("vindex: partition %d record %d: %w", i, x, err)
			}
		}
		blk.Prepare(vector.KernelAuto)
		blocks[i] = blk
		size += blk.Len()
	}
	if size == 0 {
		return nil, fmt.Errorf("vindex: stored index is empty")
	}
	return &Index{
		pp:     voronoi.NewPartitioner(pivots, metric),
		sum:    sum,
		blocks: blocks,
		size:   size,
		opts:   Options{Metric: metric, NumPivots: int(numPivots), BoundK: int(boundK)},
	}, nil
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
