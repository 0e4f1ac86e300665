// Package codec defines the data objects that flow through the kNN-join
// pipeline and their binary wire encoding.
//
// Every record that crosses the MapReduce shuffle is serialized with this
// package, so the engine's shuffle-byte counters measure realistic sizes —
// the quantity reported as "shuffling cost" in Figures 8–12 of the paper.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"knnjoin/internal/vector"
)

// Source tags which input dataset an object came from (the paper's "origin"
// field emitted by the first MapReduce job's mappers, Figure 4).
type Source byte

const (
	// FromR marks an object of the outer dataset R.
	FromR Source = 'R'
	// FromS marks an object of the inner dataset S.
	FromS Source = 'S'
)

// String returns "R" or "S".
func (s Source) String() string { return string(rune(s)) }

// Object is a point with a dataset-unique identifier.
type Object struct {
	ID    int64
	Point vector.Point
}

// CheckObjects is the input check every loader applies (driver.LoadRS,
// vindex.Build): every object must have dim coordinates — a negative
// dim takes the first object's — and all of them finite, since
// vector.Parse accepts "NaN" and "Inf", a NaN compares false with
// everything and the triangle inequality says nothing about ±Inf. It
// returns the dimensionality and names the first offender by ID.
func CheckObjects(objs []Object, dim int) (int, error) {
	for i := range objs {
		d := objs[i].Point.Dim()
		if dim < 0 {
			dim = d
		}
		if d != dim {
			return dim, fmt.Errorf("object %d has %d dims, want %d", objs[i].ID, d, dim)
		}
		if !objs[i].Point.IsFinite() {
			return dim, fmt.Errorf("object %d has a non-finite coordinate", objs[i].ID)
		}
	}
	return dim, nil
}

// Tagged is an object annotated by the first MapReduce job: its source
// dataset, the Voronoi partition it belongs to (index of the closest
// pivot), and its distance to that pivot. This mirrors the mapper output
// of Figure 4 in the paper.
type Tagged struct {
	Object
	Src       Source
	Partition int32
	PivotDist float64
}

// Neighbor is one entry of a kNN result list.
type Neighbor struct {
	ID   int64
	Dist float64
}

// Result is the final output for one object r of R: its k nearest
// neighbors in ascending distance order.
type Result struct {
	RID       int64
	Neighbors []Neighbor
}

const (
	objHeader    = 8 + 4 // id + dim
	taggedHeader = objHeader + 1 + 4 + 8
)

// AppendObject appends the wire form of o to dst and returns the extended
// slice.
func AppendObject(dst []byte, o Object) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.ID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(o.Point)))
	for _, v := range o.Point {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// EncodeObject returns the wire form of o.
func EncodeObject(o Object) []byte {
	return AppendObject(make([]byte, 0, objHeader+8*len(o.Point)), o)
}

// DecodeObject parses an object from the front of b, returning the object
// and the number of bytes consumed.
func DecodeObject(b []byte) (Object, int, error) {
	if len(b) < objHeader {
		return Object{}, 0, fmt.Errorf("codec: object truncated: %d bytes", len(b))
	}
	id := int64(binary.LittleEndian.Uint64(b))
	dim := int(binary.LittleEndian.Uint32(b[8:]))
	need := objHeader + 8*dim
	if dim < 0 || len(b) < need {
		return Object{}, 0, fmt.Errorf("codec: object truncated: dim=%d, have %d bytes", dim, len(b))
	}
	p := make(vector.Point, dim)
	off := objHeader
	for i := 0; i < dim; i++ {
		p[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	return Object{ID: id, Point: p}, need, nil
}

// PeekSource returns the source tag of a Tagged wire record without
// decoding its point — enough for a streaming reducer to route the
// record into the right Block before the full decode.
func PeekSource(b []byte) (Source, error) {
	t, _, err := PeekTagged(b)
	return t.Src, err
}

// PeekTagged reads a Tagged wire record's tags — id, source, partition
// and pivot distance — without decoding its point: the returned Tagged
// has a nil Point, and coords is the record's coordinate bytes, a
// sub-slice of rec (capacity capped at its length). Job 2 of the
// pivot-based joins routes with it: the tags go into the JoinKey and
// coords, unchanged, becomes the value.
func PeekTagged(rec []byte) (Tagged, []byte, error) {
	if len(rec) < objHeader {
		return Tagged{}, nil, fmt.Errorf("codec: tagged record truncated: %d bytes", len(rec))
	}
	dim := int(binary.LittleEndian.Uint32(rec[8:]))
	off := objHeader + 8*dim
	if dim < 0 || len(rec) < off+1+4+8 {
		return Tagged{}, nil, fmt.Errorf("codec: tagged record truncated: dim=%d, have %d bytes", dim, len(rec))
	}
	t := Tagged{
		Object:    Object{ID: int64(binary.LittleEndian.Uint64(rec))},
		Src:       Source(rec[off]),
		Partition: int32(binary.LittleEndian.Uint32(rec[off+1:])),
		PivotDist: math.Float64frombits(binary.LittleEndian.Uint64(rec[off+5:])),
	}
	if t.Src != FromR && t.Src != FromS {
		return Tagged{}, nil, fmt.Errorf("codec: bad source tag %q", rec[off])
	}
	return t, rec[objHeader:off:off], nil
}

// AppendTaggedToBlock decodes one Tagged wire record and appends its
// object — id, pivot distance, coordinates — to the block's parallel
// slices, returning the record's source and partition tags. Coordinates
// land directly in the block's flat backing store: no per-point Point
// allocation, only amortized slice growth. The first record stamps the
// block's dimensionality; a later record of a different dimensionality
// is a data error and is reported instead of corrupting the block.
func AppendTaggedToBlock(b *vector.Block, rec []byte) (Source, int32, error) {
	t, coords, err := PeekTagged(rec)
	if err != nil {
		return 0, 0, err
	}
	if err := appendRow(b, t.ID, t.PivotDist, coords); err != nil {
		return 0, 0, err
	}
	return t.Src, t.Partition, nil
}

// AppendKeyedToBlock is AppendTaggedToBlock for a job-2 record of the
// pivot-based joins: id, source, partition and pivot distance come from
// its JoinKey, and the value holds only the coordinates, as PeekTagged
// cuts them. It rejects a key that is not JoinKeyLen bytes, a source
// tag other than R or S, a value whose length is not a multiple of 8,
// and a dimensionality other than the block's.
func AppendKeyedToBlock(b *vector.Block, key, coords []byte) (Source, int32, error) {
	if len(key) != JoinKeyLen {
		return 0, 0, fmt.Errorf("codec: join key has %d bytes, want %d", len(key), JoinKeyLen)
	}
	tags := key[JoinKeyGroupPrefix:]
	src := Source(tags[0])
	if src != FromR && src != FromS {
		return 0, 0, fmt.Errorf("codec: bad source tag %q", tags[0])
	}
	if len(coords)%8 != 0 {
		return 0, 0, fmt.Errorf("codec: coordinate value of %d bytes is not a whole number of float64s", len(coords))
	}
	if err := appendRow(b, KeyInt64(tags[13:]), KeyFloat64(tags[5:]), coords); err != nil {
		return 0, 0, err
	}
	return src, int32(binary.BigEndian.Uint32(tags[1:])), nil
}

// appendRow appends one object, its coordinates given as little-endian
// float64 bytes, to the block. The first row stamps the block's
// dimensionality; a row of another dimensionality is an error.
func appendRow(b *vector.Block, id int64, pivotDist float64, coords []byte) error {
	dim := len(coords) / 8
	if b.Len() == 0 {
		b.Dim = dim
	} else if dim != b.Dim {
		return fmt.Errorf("codec: dimension mismatch in block: record has %d dims, block has %d", dim, b.Dim)
	}
	b.IDs = append(b.IDs, id)
	b.PivotDist = append(b.PivotDist, pivotDist)
	base := len(b.Coords)
	b.Coords = slices.Grow(b.Coords, dim)[:base+dim]
	row := b.Coords[base:]
	for i := range row {
		row[i] = math.Float64frombits(binary.LittleEndian.Uint64(coords[8*i:]))
	}
	return nil
}

// DecodeBlock decodes a batch of Tagged wire records — a whole reducer
// value group — into one columnar Block plus parallel source and
// partition slices. The backing slices are sized exactly in a single
// header pre-pass, so the group decodes with a constant number of
// allocations instead of two per point (the Object/Point pair the
// per-record DecodeTagged path allocates). The block is prepared with
// vector.KernelAuto: its shape picks the scan tier, one conversion pass
// at decode reused by every scan over the group.
func DecodeBlock(recs [][]byte) (*vector.Block, []Source, []int32, error) {
	// Size the backing store from the first record's header: every
	// record of a group shares one dimensionality (enforced during the
	// decode), so one header read replaces a pre-pass over all records.
	coords := 0
	if len(recs) > 0 {
		if len(recs[0]) < objHeader {
			return nil, nil, nil, fmt.Errorf("codec: tagged record truncated: %d bytes", len(recs[0]))
		}
		dim := int(binary.LittleEndian.Uint32(recs[0][8:]))
		// A corrupt dim header must surface as AppendTaggedToBlock's
		// decode error, not as a giant allocation here — the record can
		// never hold more coordinates than its own length admits.
		if max := (len(recs[0]) - objHeader) / 8; dim > max {
			dim = max
		}
		if dim > 0 {
			coords = len(recs) * dim
		}
	}
	b := &vector.Block{
		IDs:       make([]int64, 0, len(recs)),
		PivotDist: make([]float64, 0, len(recs)),
		Coords:    make([]float64, 0, coords),
	}
	srcs := make([]Source, len(recs))
	parts := make([]int32, len(recs))
	for i, rec := range recs {
		src, part, err := AppendTaggedToBlock(b, rec)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("codec: block record %d: %w", i, err)
		}
		srcs[i], parts[i] = src, part
	}
	b.Prepare(vector.KernelAuto)
	return b, srcs, parts, nil
}

// BlockObjects materializes a block as objects whose Points alias the
// block's backing array — one slice allocation, zero coordinate copies.
// The views are valid while the block is not appended to.
func BlockObjects(b *vector.Block) []Object {
	out := make([]Object, b.Len())
	for i := range out {
		out[i] = Object{ID: b.IDs[i], Point: b.At(i)}
	}
	return out
}

// TaggedLen returns the length of the wire form of a Tagged record of
// dim coordinates.
func TaggedLen(dim int) int { return taggedHeader + 8*dim }

// AppendTagged appends the wire form of t to dst and returns the extended
// slice.
func AppendTagged(dst []byte, t Tagged) []byte {
	dst = AppendObject(dst, t.Object)
	dst = append(dst, byte(t.Src))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.Partition))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.PivotDist))
	return dst
}

// EncodeTagged returns the wire form of t.
func EncodeTagged(t Tagged) []byte {
	return AppendTagged(make([]byte, 0, TaggedLen(len(t.Point))), t)
}

// DecodeTagged parses a Tagged record produced by EncodeTagged.
func DecodeTagged(b []byte) (Tagged, error) {
	t, coords, err := PeekTagged(b)
	if err != nil {
		return Tagged{}, err
	}
	t.Point = make(vector.Point, len(coords)/8)
	for i := range t.Point {
		t.Point[i] = math.Float64frombits(binary.LittleEndian.Uint64(coords[8*i:]))
	}
	return t, nil
}

// EncodeResult returns the wire form of a kNN result list.
func EncodeResult(r Result) []byte {
	dst := make([]byte, 0, 8+4+16*len(r.Neighbors))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.RID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Neighbors)))
	for _, nb := range r.Neighbors {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(nb.ID))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(nb.Dist))
	}
	return dst
}

// DecodeResult parses a Result produced by EncodeResult.
func DecodeResult(b []byte) (Result, error) {
	rid, n, err := peekResult(b)
	if err != nil {
		return Result{}, err
	}
	r := Result{RID: rid, Neighbors: make([]Neighbor, n)}
	decodeNeighbors(r.Neighbors, b)
	return r, nil
}

// DecodeResultInto is DecodeResult into r, reusing the storage of
// r.Neighbors: a reader that streams many results decodes them all into
// one Result.
func DecodeResultInto(r *Result, b []byte) error {
	rid, n, err := peekResult(b)
	if err != nil {
		return err
	}
	r.RID, r.Neighbors = rid, slices.Grow(r.Neighbors[:0], n)[:n]
	decodeNeighbors(r.Neighbors, b)
	return nil
}

// PeekResult checks an EncodeResult record as DecodeResult does and
// returns its R object ID without decoding the neighbors.
func PeekResult(b []byte) (int64, error) {
	rid, _, err := peekResult(b)
	return rid, err
}

func peekResult(b []byte) (rid int64, n int, err error) {
	if len(b) < 12 {
		return 0, 0, fmt.Errorf("codec: result truncated: %d bytes", len(b))
	}
	n = int(binary.LittleEndian.Uint32(b[8:]))
	if n < 0 || len(b) < 12+16*n {
		return 0, 0, fmt.Errorf("codec: result truncated: n=%d, have %d bytes", n, len(b))
	}
	return int64(binary.LittleEndian.Uint64(b)), n, nil
}

// decodeNeighbors fills nbs from a record peekResult has checked.
func decodeNeighbors(nbs []Neighbor, b []byte) {
	off := 12
	for i := range nbs {
		nbs[i].ID = int64(binary.LittleEndian.Uint64(b[off:]))
		nbs[i].Dist = math.Float64frombits(binary.LittleEndian.Uint64(b[off+8:]))
		off += 16
	}
}

// Clone returns a copy of r that shares no storage with it — how a
// collector keeps a Result that a streaming reader will overwrite.
func (r Result) Clone() Result {
	nbs := make([]Neighbor, len(r.Neighbors))
	copy(nbs, r.Neighbors)
	return Result{RID: r.RID, Neighbors: nbs}
}
