package vindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/vector"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	objs := dataset.Forest(1500, 21)
	ix, err := Build(objs, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() || loaded.NumPartitions() != ix.NumPartitions() {
		t.Fatalf("shape changed: %d/%d vs %d/%d",
			loaded.Len(), loaded.NumPartitions(), ix.Len(), ix.NumPartitions())
	}
	// Queries on the loaded index must match the original exactly.
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		q := objs[rng.Intn(len(objs))].Point.Clone()
		for d := range q {
			q[d] += rng.NormFloat64() * 5
		}
		a := ix.KNN(q, 7)
		b := loaded.KNN(q, 7)
		if len(a) != len(b) {
			t.Fatalf("trial %d: result sizes differ", trial)
		}
		for i := range a {
			if a[i].ID != b[i].ID || math.Abs(a[i].Dist-b[i].Dist) > 1e-12 {
				t.Fatalf("trial %d pos %d: %+v vs %+v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestSaveLoadAlternateMetric(t *testing.T) {
	objs := dataset.Uniform(400, 3, 100, 23)
	ix, err := Build(objs, Options{Metric: vector.L1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := vector.Point{50, 50, 50}
	a, b := ix.KNN(q, 5), loaded.KNN(q, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("L1 index changed after round trip: %+v vs %+v", a[i], b[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________________"),
		append(storeMagic[:], 0xFF, 0xFF, 0xFF, 0xFF), // bad metric
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	objs := dataset.Uniform(100, 2, 50, 24)
	ix, err := Build(objs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut at a spread of prefixes; all must fail cleanly, never panic.
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		cut := int(float64(len(full)) * frac)
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d bytes accepted", cut, len(full))
		}
	}
}

// Save writes every record's source and partition tags from its
// position, so Load checks them — and the pivot-distance order and the
// finiteness the queries rely on — naming the partition and record. Each
// case corrupts one record of a saved file by hand.
func TestLoadRejectsCorruptRecords(t *testing.T) {
	objs := dataset.Uniform(300, 3, 50, 25)
	ix, err := Build(objs, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	j := 0
	for ix.blocks[j].Len() < 2 {
		j++
	}
	blk := ix.blocks[j]
	// offset finds row x of partition j in the file; coordinates start 12
	// bytes into a record, the source tag follows them, then the
	// partition tag and the pivot distance.
	offset := func(x int) int {
		rec := codec.EncodeTagged(codec.Tagged{
			Object: codec.Object{ID: blk.IDs[x], Point: blk.At(x)},
			Src:    codec.FromS, Partition: int32(j), PivotDist: blk.PivotDist[x],
		})
		at := bytes.Index(file, rec)
		if at < 0 {
			t.Fatalf("record %d of partition %d not found in the file", x, j)
		}
		return at
	}
	tagAt := 12 + 8*blk.Dim
	cases := []struct {
		name, want string
		corrupt    func(f []byte)
	}{
		{"source tag", "source tag R", func(f []byte) { f[offset(1)+tagAt] = byte(codec.FromR) }},
		{"partition tag", fmt.Sprintf("tagged for partition %d", j+1), func(f []byte) {
			binary.LittleEndian.PutUint32(f[offset(1)+tagAt+1:], uint32(j+1))
		}},
		{"pivot order", "out of order", func(f []byte) {
			binary.LittleEndian.PutUint64(f[offset(1)+tagAt+5:], math.Float64bits(blk.PivotDist[0]-1))
		}},
		{"non-finite coordinate", "non-finite", func(f []byte) {
			binary.LittleEndian.PutUint64(f[offset(1)+12:], math.Float64bits(math.Inf(-1)))
		}},
	}
	for _, c := range cases {
		f := bytes.Clone(file)
		c.corrupt(f)
		_, err := Load(bytes.NewReader(f))
		want := fmt.Sprintf("partition %d record 1: ", j)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Load = %v, want an error containing %q and %q", c.name, err, want, c.want)
		}
	}
	if _, err := Load(bytes.NewReader(file[:len(file)-5])); err == nil {
		t.Error("a file missing its last bytes loaded")
	}
}

// Build → Save → Load → Save reproduces the file byte for byte: Save
// regenerates every tag Load checked.
func TestSaveLoadSaveIdentical(t *testing.T) {
	ix, err := Build(dataset.Forest(800, 26), Options{Seed: 2, BoundK: 4})
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	if err := ix.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("the reloaded index saves different bytes")
	}
}

func BenchmarkSave(b *testing.B) {
	objs := dataset.Forest(20000, 1)
	ix, err := Build(objs, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoad(b *testing.B) {
	objs := dataset.Forest(20000, 1)
	ix, err := Build(objs, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
