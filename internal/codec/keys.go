package codec

import (
	"encoding/binary"
	"math"
)

// Binary shuffle keys.
//
// The MapReduce engine sorts intermediate pairs by raw key bytes, so every
// key the join drivers emit must be byte-comparable: bytes.Compare order
// has to equal the intended numeric order. The encoders here guarantee
// that — fixed-width big-endian for unsigned reducer/partition ids, an
// offset-binary transform for signed ids, and the usual IEEE-754
// total-order transform for float suffixes — replacing the decimal string
// keys ("10" < "2" under a string sort) the drivers once built with
// strconv.

// Uint32Key returns the 4-byte big-endian encoding of v: byte order
// equals numeric order. It is the standard reducer-id key.
func Uint32Key(v uint32) []byte {
	return binary.BigEndian.AppendUint32(make([]byte, 0, 4), v)
}

// KeyUint32 decodes the leading Uint32Key prefix of key.
func KeyUint32(key []byte) uint32 {
	return binary.BigEndian.Uint32(key)
}

// AppendInt64Key appends the 8-byte order-preserving encoding of v:
// offset-binary (sign bit flipped) big-endian, so negative ids sort
// before positive ones.
func AppendInt64Key(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v)^(1<<63))
}

// Int64Key returns the 8-byte order-preserving encoding of v.
func Int64Key(v int64) []byte {
	return AppendInt64Key(make([]byte, 0, 8), v)
}

// KeyInt64 decodes the leading Int64Key prefix of key.
func KeyInt64(key []byte) int64 {
	return int64(binary.BigEndian.Uint64(key) ^ (1 << 63))
}

// AppendFloat64Key appends the 8-byte total-order encoding of f: the
// IEEE-754 bits with the sign bit flipped for non-negatives and all bits
// flipped for negatives, so byte order equals numeric order (with -0 < +0
// and NaNs at the extremes).
func AppendFloat64Key(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return binary.BigEndian.AppendUint64(dst, bits)
}

// Float64Key returns the 8-byte total-order encoding of f.
func Float64Key(f float64) []byte {
	return AppendFloat64Key(make([]byte, 0, 8), f)
}

// KeyFloat64 decodes the leading Float64Key prefix of key.
func KeyFloat64(key []byte) float64 {
	bits := binary.BigEndian.Uint64(key)
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits)
}

// RegionKeyGroupPrefix is the byte length of a RegionKey's reducer-group
// prefix — the Job.GroupKeyPrefix for jobs keyed by RegionKey.
const RegionKeyGroupPrefix = 4

// RegionKey builds the shuffle key of the block/region join jobs (H-BRJ,
// broadcast): the reducer region id as grouping prefix,
// then the source tag and object id, so a region's objects stream to the
// reducer R-first in ascending id order — a deterministic order that no
// reducer has to re-establish.
func RegionKey(region int, t Tagged) []byte {
	dst := make([]byte, 0, RegionKeyGroupPrefix+1+8)
	dst = binary.BigEndian.AppendUint32(dst, uint32(region))
	dst = append(dst, byte(t.Src))
	return AppendInt64Key(dst, t.ID)
}

// JoinKeyGroupPrefix is the byte length of a JoinKey's reducer-group
// prefix — the Job.GroupKeyPrefix for jobs keyed by JoinKey.
const JoinKeyGroupPrefix = 4

// JoinKeyLen is the byte length of every JoinKey.
const JoinKeyLen = JoinKeyGroupPrefix + 1 + 4 + 8 + 8

// JoinKey builds the composite shuffle key of the pivot-based join jobs
// (PGBJ, PBJ, the range join):
//
//	group(4, big-endian) | src(1) | partition(4) | pivotDist(8) | id(8)
//
// The key carries every tag of the record, so the job's value is the
// object's coordinates alone (PeekTagged cuts them, AppendKeyedToBlock
// reads the pair back).
//
// Grouping on the 4-byte prefix gives one reduce call per reducer group,
// while the suffix secondary-sorts the group's values: all R objects
// first ('R' < 'S'), partitions ascending, and within an S partition
// ascending pivot distance with ids breaking ties — exactly the
// SortByPivotDist order the reducers need for Theorem-2 windows, now
// produced by the shuffle's sort-merge instead of an in-reducer sort.
func JoinKey(group int, t Tagged) []byte {
	dst := make([]byte, 0, JoinKeyLen)
	dst = binary.BigEndian.AppendUint32(dst, uint32(group))
	dst = append(dst, byte(t.Src))
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.Partition))
	dst = AppendFloat64Key(dst, t.PivotDist)
	return AppendInt64Key(dst, t.ID)
}
