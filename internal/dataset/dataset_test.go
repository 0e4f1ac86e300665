package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"knnjoin/internal/codec"
	"knnjoin/internal/dfs"
	"knnjoin/internal/vector"
)

func TestForestShape(t *testing.T) {
	objs := Forest(5000, 1)
	if len(objs) != 5000 {
		t.Fatalf("len = %d", len(objs))
	}
	for i, o := range objs {
		if o.ID != int64(i) {
			t.Fatalf("ID[%d] = %d", i, o.ID)
		}
		if o.Point.Dim() != ForestDim {
			t.Fatalf("dim = %d", o.Point.Dim())
		}
		for d, v := range o.Point {
			if v != math.Round(v) {
				t.Fatalf("attribute %d = %v not integral", d, v)
			}
		}
		if o.Point[0] < 1850 || o.Point[0] > 3860 {
			t.Fatalf("elevation %v out of range", o.Point[0])
		}
	}
}

func TestForestDeterministic(t *testing.T) {
	a, b := Forest(100, 7), Forest(100, 7)
	for i := range a {
		if !a[i].Point.Equal(b[i].Point) {
			t.Fatal("same seed produced different data")
		}
	}
	c := Forest(100, 8)
	same := true
	for i := range a {
		if !a[i].Point.Equal(c[i].Point) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// The paper's Fig. 10 analysis: attributes 7–10 must have low variance
// relative to the terrain attributes.
func TestForestTailDimsLowVariance(t *testing.T) {
	objs := Forest(20000, 2)
	variance := func(d int) float64 {
		var sum, sq float64
		for _, o := range objs {
			sum += o.Point[d]
		}
		mean := sum / float64(len(objs))
		for _, o := range objs {
			dv := o.Point[d] - mean
			sq += dv * dv
		}
		return sq / float64(len(objs))
	}
	highVar := math.Min(variance(0), math.Min(variance(3), variance(5)))
	for d := 6; d < 10; d++ {
		if v := variance(d); v > highVar/4 {
			t.Errorf("dim %d variance %.1f not clearly below terrain variance %.1f", d, v, highVar)
		}
	}
}

func TestExpandFactorAndSize(t *testing.T) {
	base := Forest(500, 3)
	for _, f := range []int{1, 2, 5, 10} {
		got := Expand(base, f)
		if len(got) != 500*f {
			t.Fatalf("factor %d: len = %d, want %d", f, len(got), 500*f)
		}
		seen := make(map[int64]bool)
		for _, o := range got {
			if seen[o.ID] {
				t.Fatalf("duplicate ID %d", o.ID)
			}
			seen[o.ID] = true
			if o.Point.Dim() != ForestDim {
				t.Fatalf("dim = %d", o.Point.Dim())
			}
		}
	}
}

func TestExpandPreservesBasePrefix(t *testing.T) {
	base := Forest(200, 4)
	got := Expand(base, 3)
	for i := range base {
		if !got[i].Point.Equal(base[i].Point) {
			t.Fatalf("object %d modified by expansion", i)
		}
	}
}

// The expansion only emits values that already exist in the base dataset —
// a direct consequence of taking the "next value" from the frequency
// ranking — so every dimension's support set is preserved.
func TestExpandPreservesValueSupport(t *testing.T) {
	base := Forest(300, 5)
	got := Expand(base, 4)
	for d := 0; d < ForestDim; d++ {
		support := make(map[float64]bool)
		for _, o := range base {
			support[o.Point[d]] = true
		}
		for _, o := range got {
			if !support[o.Point[d]] {
				t.Fatalf("dim %d: expansion invented value %v", d, o.Point[d])
			}
		}
	}
}

func TestExpandLastValueStaysConstant(t *testing.T) {
	// A single distinct value per dimension: every expansion copy keeps it.
	base := []codec.Object{
		{ID: 0, Point: vector.Point{5, 5}},
		{ID: 1, Point: vector.Point{5, 5}},
	}
	got := Expand(base, 3)
	if len(got) != 6 {
		t.Fatalf("len = %d", len(got))
	}
	for _, o := range got {
		if !o.Point.Equal(vector.Point{5, 5}) {
			t.Fatalf("constant dataset changed: %v", o.Point)
		}
	}
}

func TestExpandEdgeCases(t *testing.T) {
	if got := Expand(nil, 5); len(got) != 0 {
		t.Fatal("expanding empty base")
	}
	base := Forest(10, 6)
	if got := Expand(base, 0); len(got) != 10 {
		t.Fatal("factor 0 should behave as 1")
	}
}

func TestOSMShapeAndSkew(t *testing.T) {
	objs := OSM(30000, 1)
	if len(objs) != 30000 {
		t.Fatalf("len = %d", len(objs))
	}
	for _, o := range objs {
		if o.Point.Dim() != 2 {
			t.Fatalf("dim = %d", o.Point.Dim())
		}
		// Allow slight cluster spillover beyond the lon/lat box.
		if o.Point[0] < -200 || o.Point[0] > 200 || o.Point[1] < -100 || o.Point[1] > 100 {
			t.Fatalf("coordinate out of range: %v", o.Point)
		}
	}
	// Skew check: a coarse grid must show a heavily loaded cell far above
	// the uniform expectation.
	cells := make(map[[2]int]int)
	for _, o := range objs {
		cells[[2]int{int(o.Point[0]) / 10, int(o.Point[1]) / 10}]++
	}
	max := 0
	for _, c := range cells {
		if c > max {
			max = c
		}
	}
	uniformExpect := 30000 / (36 * 18)
	if max < 5*uniformExpect {
		t.Errorf("max cell %d does not show city skew (uniform ≈ %d)", max, uniformExpect)
	}
}

func TestUniform(t *testing.T) {
	objs := Uniform(1000, 4, 50, 3)
	for _, o := range objs {
		for _, v := range o.Point {
			if v < 0 || v >= 50 {
				t.Fatalf("value %v outside [0,50)", v)
			}
		}
	}
}

func TestProject(t *testing.T) {
	objs := Forest(50, 9)
	got := Project(objs, 4)
	for i, o := range got {
		if o.Point.Dim() != 4 || o.ID != objs[i].ID {
			t.Fatalf("bad projection %+v", o)
		}
		for d := 0; d < 4; d++ {
			if o.Point[d] != objs[i].Point[d] {
				t.Fatal("projection altered values")
			}
		}
	}
}

func TestRenumber(t *testing.T) {
	objs := []codec.Object{{ID: 17, Point: vector.Point{1}}, {ID: 3, Point: vector.Point{2}}}
	got := Renumber(objs)
	if got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("got IDs %d,%d", got[0].ID, got[1].ID)
	}
}

func TestDFSRoundTrip(t *testing.T) {
	fs := dfs.New(0)
	objs := Forest(200, 10)
	ToDFS(fs, "forest", objs, codec.FromR)
	got, err := FromDFS(fs, "forest")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(objs) {
		t.Fatalf("len = %d", len(got))
	}
	for i, tg := range got {
		if tg.ID != objs[i].ID || !tg.Point.Equal(objs[i].Point) {
			t.Fatalf("object %d mismatch", i)
		}
		if tg.Src != codec.FromR || tg.Partition != -1 {
			t.Fatalf("bad tag %+v", tg)
		}
	}
}

func TestFromDFSErrors(t *testing.T) {
	fs := dfs.New(0)
	if _, err := FromDFS(fs, "missing"); err == nil {
		t.Error("missing file accepted")
	}
	fs.Write("bad", []dfs.Record{[]byte("garbage")})
	if _, err := FromDFS(fs, "bad"); err == nil {
		t.Error("garbage record accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	objs := OSM(100, 11)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, objs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(objs) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range objs {
		if got[i].ID != objs[i].ID || !got[i].Point.Equal(objs[i].Point) {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, got[i], objs[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"noid\n",
		"x,1,2\n",
		"1,1,bad\n",
		"1,1,2\n2,1\n", // dimension mismatch
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q): expected error", c)
		}
	}
	got, err := ReadCSV(strings.NewReader("\n1,5,6\n\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("blank-line handling: %v %v", got, err)
	}
}

// A non-finite coordinate in any column is rejected with its line
// number, so every CSV consumer — the planner and the experiments
// included — gets the check the loaders apply.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"NaN", "+Inf", "-inf"} {
		in := "1,1,2,3\n2,4," + v + ",6\n"
		_, err := ReadCSV(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("ReadCSV with %s in a middle column: err = %v, want a non-finite error on line 2", v, err)
		}
	}
}

// Property: Expand(base, f) has exactly f×len(base) objects with unique
// sequential IDs for any base size and factor.
func TestExpandSizeQuick(t *testing.T) {
	f := func(nRaw, fRaw uint8) bool {
		n := int(nRaw)%50 + 1
		factor := int(fRaw)%6 + 1
		base := Uniform(n, 3, 100, int64(nRaw)*31+int64(fRaw))
		got := Expand(base, factor)
		if len(got) != n*factor {
			return false
		}
		for i, o := range got {
			if o.ID != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkForestGen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Forest(10000, int64(i))
	}
}

func BenchmarkExpand10x(b *testing.B) {
	base := Forest(2000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Expand(base, 10)
	}
}

func TestGaussianShape(t *testing.T) {
	objs := Gaussian(2000, 3, 4, 2, 100, 42)
	if len(objs) != 2000 {
		t.Fatalf("got %d objects, want 2000", len(objs))
	}
	if objs[0].Point.Dim() != 3 {
		t.Fatalf("dims = %d, want 3", objs[0].Point.Dim())
	}
	// A tight 4-cluster mixture occupies far less of the 4×4×4 coarse
	// grid than uniform noise would: count occupied cells.
	cells := map[[3]int]int{}
	for _, o := range objs {
		var c [3]int
		for d := 0; d < 3; d++ {
			c[d] = int(o.Point[d] / 25)
		}
		cells[c]++
	}
	if len(cells) > 24 {
		t.Fatalf("gaussian mixture occupies %d of 64 coarse cells; expected concentration", len(cells))
	}
}

func TestZipfSkew(t *testing.T) {
	const n = 2000
	objs := Zipf(n, 2, 64, 100, 42)
	if len(objs) != n {
		t.Fatalf("got %d objects, want %d", len(objs), n)
	}
	// The rank-1 site must dominate: the fullest cell of a 4×4 grid has
	// to hold far more than the uniform expectation n/16.
	cells := map[[2]int]int{}
	for _, o := range objs {
		var c [2]int
		for d := 0; d < 2; d++ {
			v := int(o.Point[d] / 25)
			if v < 0 {
				v = 0
			}
			if v > 3 {
				v = 3
			}
			c[d] = v
		}
		cells[c]++
	}
	max := 0
	for _, cnt := range cells {
		if cnt > max {
			max = cnt
		}
	}
	if max < 2*n/16 {
		t.Fatalf("fullest cell holds %d of %d; want Zipf skew ≥ 2× the uniform %d", max, n, n/16)
	}
}

func TestGaussianZipfDeterministic(t *testing.T) {
	equal := func(a, b []codec.Object) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].ID != b[i].ID || !a[i].Point.Equal(b[i].Point) {
				return false
			}
		}
		return true
	}
	for name, gen := range map[string]func(seed int64) []codec.Object{
		"gaussian": func(seed int64) []codec.Object { return Gaussian(300, 4, 8, 0, 100, seed) },
		"zipf":     func(seed int64) []codec.Object { return Zipf(300, 3, 0, 100, seed) },
	} {
		a, b, c := gen(5), gen(5), gen(6)
		if !equal(a, b) {
			t.Errorf("%s: same seed differs", name)
		}
		if equal(a, c) {
			t.Errorf("%s: different seeds identical", name)
		}
	}
}
