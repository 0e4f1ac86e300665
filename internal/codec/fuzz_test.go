package codec

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"knnjoin/internal/vector"
)

// Fuzz targets: every decoder must reject or correctly parse arbitrary
// bytes without panicking — these records cross the shuffle, so a
// malformed buffer must never take down a task.

func FuzzDecodeObject(f *testing.F) {
	f.Add(EncodeObject(Object{ID: 1, Point: vector.Point{1, 2, 3}}))
	f.Add(EncodeObject(Object{ID: -9, Point: nil}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, n, err := DecodeObject(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Round trip must be stable.
		again, n2, err := DecodeObject(EncodeObject(o))
		if err != nil || n2 <= 0 {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.ID != o.ID || again.Point.Dim() != o.Point.Dim() {
			t.Fatal("round trip changed the object")
		}
	})
}

func FuzzDecodeTagged(f *testing.F) {
	f.Add(EncodeTagged(Tagged{Object: Object{ID: 5, Point: vector.Point{1}}, Src: FromR, Partition: 2, PivotDist: 3}))
	f.Add(EncodeTagged(Tagged{Object: Object{ID: 0}, Src: FromS}))
	f.Add([]byte("not a record"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tg, err := DecodeTagged(data)
		if err != nil {
			return
		}
		if tg.Src != FromR && tg.Src != FromS {
			t.Fatalf("accepted invalid source %q", tg.Src)
		}
		if _, err := DecodeTagged(EncodeTagged(tg)); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	f.Add(EncodeResult(Result{RID: 7, Neighbors: []Neighbor{{ID: 1, Dist: 2}}}))
	f.Add(EncodeResult(Result{}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		if _, err := DecodeResult(EncodeResult(r)); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}

// FuzzAppendKeyedToBlock feeds the job-2 decoder a key and two values
// for one block. It must never panic, and it must reject a key that is
// not JoinKeyLen bytes, a source tag other than R or S, a value that is
// not whole float64s and a second row of another dimensionality; what
// it accepts must read back the key's tags and the value's coordinates.
func FuzzAppendKeyedToBlock(f *testing.F) {
	tg := Tagged{Object: Object{ID: -3, Point: vector.Point{1.5, -2}}, Src: FromS, Partition: 7, PivotDist: 0.25}
	rec := EncodeTagged(tg)
	_, coords, err := PeekTagged(rec)
	if err != nil {
		f.Fatal(err)
	}
	key := JoinKey(2, tg)
	badSrc := slices.Clone(key)
	badSrc[JoinKeyGroupPrefix] = 'Q'
	f.Add(key, coords, coords)
	f.Add(key[:JoinKeyLen-1], coords, coords) // short key
	f.Add([]byte{}, coords, coords)           // no key
	f.Add(badSrc, coords, coords)             // bad source
	f.Add(key, coords[:7], coords)            // ragged value
	f.Add(key, coords, coords[:8])            // dimensionality change
	f.Fuzz(func(t *testing.T, key, v1, v2 []byte) {
		var b vector.Block
		src, part, err := AppendKeyedToBlock(&b, key, v1)
		valid := len(key) == JoinKeyLen && (key[4] == byte(FromR) || key[4] == byte(FromS)) && len(v1)%8 == 0
		if valid != (err == nil) {
			t.Fatalf("key %x, value of %d bytes: error %v", key, len(v1), err)
		}
		if err != nil {
			if b.Len() != 0 {
				t.Fatalf("rejected record left %d rows", b.Len())
			}
			return
		}
		if b.Len() != 1 || b.Dim != len(v1)/8 || src != Source(key[4]) ||
			part != int32(KeyUint32(key[5:])) || b.IDs[0] != KeyInt64(key[17:]) ||
			math.Float64bits(b.PivotDist[0]) != math.Float64bits(KeyFloat64(key[9:])) {
			t.Fatalf("tags or shape misread: %+v src=%v part=%d", b, src, part)
		}
		for i, c := range b.Coords {
			if math.Float64bits(c) != binary.LittleEndian.Uint64(v1[8*i:]) {
				t.Fatalf("coordinate %d misread", i)
			}
		}
		_, _, err = AppendKeyedToBlock(&b, key, v2)
		if same := len(v2) == len(v1); same != (err == nil) {
			t.Fatalf("second row of %d bytes after one of %d: error %v", len(v2), len(v1), err)
		}
	})
}
