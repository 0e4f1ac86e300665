package vindex

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/vector"
	"knnjoin/internal/voronoi"
)

// MetaOnly is the oracle of a load of NoCells: the whole index with
// its object storage dropped afterwards — the full pivot set,
// pivot-distance matrix and summary, and an empty block per cell.
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

// Subset is the oracle of a load of OnlyCells(cells): the whole index,
// restricted afterwards to the given cells. It shares the owned cells'
// blocks and zeroes the summary rows of the others, with the
// SummaryBuilder's empty-cell convention (L=+Inf, U=−Inf).
func (ix *Index) Subset(cells []int) *Index {
	n := ix.pp.NumPartitions()
	sum := &voronoi.Summary{
		K: ix.sum.K,
		R: make([]voronoi.RSummary, n),
		S: make([]voronoi.SSummary, n),
	}
	blocks := make([]*vector.Block, n)
	own := make([]bool, n)
	for _, c := range cells {
		own[c] = true
	}
	size := 0
	for j := 0; j < n; j++ {
		if own[j] {
			sum.R[j], sum.S[j], blocks[j] = ix.sum.R[j], ix.sum.S[j], ix.blocks[j]
			size += ix.blocks[j].Len()
			continue
		}
		sum.R[j] = voronoi.RSummary{L: math.Inf(1), U: math.Inf(-1)}
		sum.S[j] = voronoi.SSummary{L: math.Inf(1), U: math.Inf(-1)}
		blocks[j] = &vector.Block{}
	}
	return &Index{pp: ix.pp, sum: sum, blocks: blocks, size: size, opts: ix.opts}
}

// saveTemp builds an index over objs and saves it to a temporary file.
func saveTemp(t *testing.T, objs []codec.Object, opts Options) string {
	t.Helper()
	ix, err := Build(objs, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.idx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadCellsMatchesSubset: for every shard of 1 to 4 shards, a load
// that decodes only the shard's cells deep-equals the whole index
// restricted to them — blocks, scan tiers and quantized codes, summary
// rows and size — on a 2-d OSM index and a 10-d Forest index (whose
// cells are large enough for the quantized tier). A load of NoCells
// deep-equals MetaOnly, and a load of AllCells the whole index.
func TestLoadCellsMatchesSubset(t *testing.T) {
	for _, c := range []struct {
		name string
		objs []codec.Object
		opts Options
	}{
		{"osm", dataset.OSM(4000, 3), Options{NumPivots: 40, Seed: 1}},
		{"forest10d", dataset.Forest(6000, 4), Options{NumPivots: 24, Seed: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := saveTemp(t, c.objs, c.opts)
			full, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			quantized := 0
			for _, b := range full.blocks {
				if b.ActiveKernel() == vector.KernelQuantized {
					quantized++
				}
			}
			if c.name == "forest10d" && quantized == 0 {
				t.Fatal("no block on the quantized tier: the test would not cover it")
			}
			if all, err := LoadFile(path, AllCells); err != nil || !reflect.DeepEqual(all, full) {
				t.Fatalf("AllCells load differs from the default load (err %v)", err)
			}
			if meta, err := LoadFile(path, NoCells); err != nil || !reflect.DeepEqual(meta, full.MetaOnly()) {
				t.Fatalf("NoCells load differs from MetaOnly (err %v)", err)
			}
			for shards := 1; shards <= 4; shards++ {
				for s := 0; s < shards; s++ {
					var cells []int
					for j := s; j < full.NumPartitions(); j += shards {
						cells = append(cells, j)
					}
					got, err := LoadFile(path, OnlyCells(cells))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, full.Subset(cells)) {
						t.Fatalf("shard %d of %d: the cell-filtered load differs from the subset", s, shards)
					}
				}
			}
		})
	}
}

func TestLoadRejectsBadCellSets(t *testing.T) {
	path := saveTemp(t, dataset.Uniform(200, 2, 50, 1), Options{NumPivots: 8, Seed: 1})
	for _, sel := range [][]CellSet{
		{OnlyCells([]int{8})},
		{OnlyCells([]int{-1})},
		{OnlyCells([]int{2, 2})},
		{AllCells, NoCells},
	} {
		if _, err := LoadFile(path, sel...); err == nil {
			t.Errorf("LoadFile(%v) accepted", sel)
		}
	}
}

// loadModes are the cell sets the fuzz target loads every input with.
var loadModes = []struct {
	name string
	sel  CellSet
}{
	{"all", AllCells},
	{"even", OnlyCells([]int{0, 2})},
	{"none", NoCells},
}

// recordErr is the shape of every error Load reports about one stored
// record.
var recordErr = regexp.MustCompile(`^vindex: partition (\d+) record \d+: `)

// FuzzLoadIndex loads arbitrary bytes with all cells, some cells and no
// cells decoded. Loading never panics and never allocates much more
// than the input: a constant, 16 bytes per input byte, and the
// |P|×|P| pivot-distance matrix every load rebuilds. A load that
// decodes more cells accepts no more inputs than one that decodes
// fewer, and when the framing is sound (the NoCells load succeeds) a
// failure is a bad record in a decoded cell: an error naming that
// partition and the record.
func FuzzLoadIndex(f *testing.F) {
	ix, err := Build(dataset.Uniform(16, 2, 50, 1), Options{NumPivots: 4, Seed: 1, BoundK: 2})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Add(valid[:len(valid)/2])
	// The first partition's size and its first record's length follow
	// the pivots and the summary rows.
	parts := 8 + 12 + 4*(4+8*2)
	for j := 0; j < 4; j++ {
		parts += 4 + 16 + 4 + 16 + 4 + 8*len(ix.sum.S[j].KDists)
	}
	for _, damage := range []struct {
		at int
		v  uint32
	}{{parts, 1 << 27}, {parts, 0}, {parts + 4, 1 << 23}, {parts + 4, 3}} {
		bad := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(bad[damage.at:], damage.v)
		f.Add(bad)
	}
	// A record tagged R: a bad record in a decoded cell.
	j := 0
	for ix.blocks[j].Len() == 0 {
		j++
	}
	obj := codec.EncodeObject(codec.Object{ID: ix.blocks[j].IDs[0], Point: ix.blocks[j].At(0)})
	bad := bytes.Clone(valid)
	bad[bytes.Index(bad, obj)+len(obj)] = byte(codec.FromR)
	if _, err := Load(bytes.NewReader(bad)); err == nil || !recordErr.MatchString(err.Error()) {
		f.Fatalf("the R-tagged seed loads with %v, want a record error", err)
	}
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		pivots := 0
		if len(data) >= 20 {
			pivots = int(min(binary.LittleEndian.Uint32(data[16:]), 1<<24))
		}
		allowed := uint64(256<<10 + 16*len(data) + 16*pivots*pivots)
		errs := make([]error, len(loadModes))
		for i, m := range loadModes {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, errs[i] = Load(bytes.NewReader(data), m.sel)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > allowed {
				t.Fatalf("%s: loading %d bytes allocated %d bytes (allowed %d)", m.name, len(data), got, allowed)
			}
		}
		all, some, none := errs[0], errs[1], errs[2]
		if all == nil && (some != nil || none != nil) || some == nil && none != nil {
			t.Fatalf("decoding more cells accepted more: all %v, even %v, none %v", all, some, none)
		}
		if none != nil {
			return
		}
		for i, err := range errs[:2] {
			if err == nil {
				continue
			}
			m := recordErr.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("%s: framing passed but the load failed with %q, not naming a partition and a record", loadModes[i].name, err)
			}
			if part := m[1]; i == 1 && part != "0" && part != "2" {
				t.Fatalf("even: the error %q names partition %s, which the load did not decode", err, part)
			}
		}
	})
}

// BenchmarkLoadCells loads one shard's half of the cells — what a
// replica of a two-shard cluster decodes — next to BenchmarkLoad's
// whole index and the router's metadata.
func BenchmarkLoadCells(b *testing.B) {
	ix, err := Build(dataset.Forest(20000, 1), Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		b.Fatal(err)
	}
	var half []int
	for j := 0; j < ix.NumPartitions(); j += 2 {
		half = append(half, j)
	}
	for _, m := range []struct {
		name string
		sel  CellSet
	}{{"all", AllCells}, {"half", OnlyCells(half)}, {"none", NoCells}} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Load(bytes.NewReader(buf.Bytes()), m.sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
