package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// quickCfg keeps experiment tests fast: ~400-object base (Forest×10 =
// 4000 objects), 4 nodes.
func quickCfg() Config {
	return Config{Scale: 0.02, Seed: 1, Nodes: 4, K: 5}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1 || c.Nodes != 16 || c.K != 10 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestRunnerDatasetsCached(t *testing.T) {
	r := NewRunner(quickCfg())
	a := r.ForestX(10)
	b := r.ForestX(10)
	if &a[0] != &b[0] {
		t.Fatal("ForestX not cached")
	}
	if len(r.ForestX(2)) != 2*len(r.ForestX(1)) {
		t.Fatal("expansion factor wrong")
	}
	if len(r.OSM()) == 0 || r.OSM()[0].Point.Dim() != 2 {
		t.Fatal("OSM dataset wrong shape")
	}
}

func TestPivotCountsMonotone(t *testing.T) {
	r := NewRunner(quickCfg())
	pcs := r.PivotCounts()
	if len(pcs) != 4 {
		t.Fatalf("got %d pivot counts", len(pcs))
	}
	for i := 1; i < len(pcs); i++ {
		if pcs[i] <= pcs[i-1] {
			t.Fatalf("pivot counts not increasing: %v", pcs)
		}
	}
	if r.DefaultPivots() != pcs[1] {
		t.Fatal("DefaultPivots is not the second sweep entry")
	}
}

func TestTable2Renders(t *testing.T) {
	r := NewRunner(quickCfg())
	res, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"table2", "random", "farthest", "kmeans", "dev"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// 4 pivot counts × 3 strategies = 12 data rows.
	if rows := len(res.Tables[0].Rows); rows != 12 {
		t.Fatalf("rows = %d, want 12", rows)
	}
}

// The paper's Table 2 finding must reproduce at any scale: farthest
// selection's max partition dwarfs random selection's.
func TestTable2FarthestSkew(t *testing.T) {
	r := NewRunner(quickCfg())
	objs := r.ForestX(10)
	randCounts, _, err := r.partitionSizes(objs, 0, r.PivotCounts()[0])
	if err != nil {
		t.Fatal(err)
	}
	farCounts, _, err := r.partitionSizes(objs, 1, r.PivotCounts()[0])
	if err != nil {
		t.Fatal(err)
	}
	maxOf := func(xs []int) int {
		m := 0
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	if maxOf(farCounts) <= maxOf(randCounts) {
		t.Fatalf("farthest max %d not above random max %d", maxOf(farCounts), maxOf(randCounts))
	}
}

func TestTable3Renders(t *testing.T) {
	r := NewRunner(quickCfg())
	res, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(res.Tables[0].Rows); rows != 12 {
		t.Fatalf("rows = %d, want 12", rows)
	}
}

func TestFig6and7(t *testing.T) {
	r := NewRunner(quickCfg())
	f6, f7, err := r.Fig6and7()
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(f6.Tables[0].Rows); rows != 16 { // 4 |P| × 4 combos
		t.Fatalf("fig6 rows = %d, want 16", rows)
	}
	if rows := len(f7.Tables[0].Rows); rows != 16 {
		t.Fatalf("fig7 rows = %d, want 16", rows)
	}
	for _, combo := range []string{"RGE", "RGR", "KGE", "KGR"} {
		if !strings.Contains(f6.String(), combo) {
			t.Fatalf("fig6 missing combo %s", combo)
		}
	}
}

func TestFig8(t *testing.T) {
	r := NewRunner(quickCfg())
	res, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(res.Tables[0].Rows); rows != 15 { // 5 k × 3 algos
		t.Fatalf("rows = %d, want 15", rows)
	}
	for _, alg := range []string{"H-BRJ", "PBJ", "PGBJ"} {
		if !strings.Contains(res.String(), alg) {
			t.Fatalf("missing algorithm %s", alg)
		}
	}
}

func TestFig9(t *testing.T) {
	r := NewRunner(quickCfg())
	res, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(res.Tables[0].Rows); rows != 15 {
		t.Fatalf("rows = %d, want 15", rows)
	}
}

func TestFig10(t *testing.T) {
	r := NewRunner(quickCfg())
	res, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(res.Tables[0].Rows); rows != 15 { // 5 dims × 3 algos
		t.Fatalf("rows = %d, want 15", rows)
	}
}

func TestFig11(t *testing.T) {
	cfg := quickCfg()
	cfg.Scale = 0.01 // ×25 would otherwise dominate test time
	r := NewRunner(cfg)
	res, err := r.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(res.Tables[0].Rows); rows != 18 { // 6 sizes × 3 algos
		t.Fatalf("rows = %d, want 18", rows)
	}
}

func TestFig12(t *testing.T) {
	r := NewRunner(quickCfg())
	res, err := r.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(res.Tables[0].Rows); rows != 12 { // 4 node counts × 3 algos
		t.Fatalf("rows = %d, want 12", rows)
	}
}

func TestAblation(t *testing.T) {
	r := NewRunner(quickCfg())
	res, err := r.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	// "no pruning" must report more pairs than "full pruning".
	full, none := rows[0], rows[4]
	if full[0] != "full pruning" || none[0] != "no pruning" {
		t.Fatalf("unexpected row order: %v / %v", full, none)
	}
}

func TestGroupingCost(t *testing.T) {
	r := NewRunner(quickCfg())
	res, err := r.GroupingCost()
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(res.Tables[0].Rows); rows != 8 { // 4 |P| × 2 groupings
		t.Fatalf("rows = %d, want 8", rows)
	}
}

func TestZKNNExperiment(t *testing.T) {
	r := NewRunner(quickCfg())
	res, err := r.ZKNN()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 5 { // exact + 4 shift counts
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	if rows[0][1] != "1" { // exact PGBJ recall is 1.000
		t.Fatalf("exact recall cell = %q, want 1", rows[0][1])
	}
}

func TestBaselinesExperiment(t *testing.T) {
	r := NewRunner(quickCfg())
	res, err := r.Baselines()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// The broadcast strategy replicates S to every node; nothing may
	// replicate more.
	if rows[0][0] != "basic (broadcast)" {
		t.Fatalf("first row = %q", rows[0][0])
	}
}

func TestTopKPairsExperiment(t *testing.T) {
	r := NewRunner(quickCfg())
	res, err := r.TopKPairs()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 8 { // 4 k values × 2 methods
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, row := range rows {
		if row[5] != "true" {
			t.Fatalf("top-k row %v reported inexact results", row)
		}
	}
}

func TestSkewExperiment(t *testing.T) {
	r := NewRunner(quickCfg())
	res, err := r.Skew()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 5 { // 3 pivot strategies + H-BRJ + broadcast
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	skewOf := func(row []string) float64 {
		var v float64
		if _, err := fmt.Sscanf(row[1], "%f", &v); err != nil {
			t.Fatalf("bad skew cell %q", row[1])
		}
		return v
	}
	// Every skew is ≥ 1 by definition; farthest selection must be the
	// most skewed of the PGBJ rows.
	for _, row := range rows {
		if skewOf(row) < 1 {
			t.Fatalf("row %v has skew < 1", row)
		}
	}
	if skewOf(rows[2]) <= skewOf(rows[0]) {
		t.Fatalf("farthest skew %v not above random %v", skewOf(rows[2]), skewOf(rows[0]))
	}
}

func TestRangeJoinExperiment(t *testing.T) {
	r := NewRunner(quickCfg())
	res, err := r.RangeJoinExp()
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, row := range rows {
		if row[5] != "true" {
			t.Fatalf("range row %v reported inexact results", row)
		}
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	cfg := quickCfg()
	cfg.Scale = 0.008
	r := NewRunner(cfg)
	var b strings.Builder
	if err := r.All(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{"table2", "table3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation", "grouping-cost", "zknn", "baselines", "topk", "range", "skew"} {
		if !strings.Contains(out, "== "+name) {
			t.Fatalf("All output missing %s", name)
		}
	}
}
