package lint

import "testing"

// Each analyzer must catch its seeded violation and stay silent on the
// compliant variant in the same fixture tree.

func TestGobSpecFixture(t *testing.T)    { runFixture(t, GobSpec, "gobspec") }
func TestMapRangeFixture(t *testing.T)   { runFixture(t, MapRange, "maprange") }
func TestSqrtFreeFixture(t *testing.T)   { runFixture(t, SqrtFree, "sqrtfree") }
func TestQueryPureFixture(t *testing.T)  { runFixture(t, QueryPure, "querypure", "vindex", "stale") }
func TestAtomicSnapFixture(t *testing.T) { runFixture(t, AtomicSnap, "atomicsnap") }
func TestDocCommentFixture(t *testing.T) { runFixture(t, DocComment, "doccomment", "a", "b") }

// TestAnalyzerScopes pins the driver-side package filters: the
// byte-identity analyzers watch the shuffle engine and serving tiers,
// and none of them fire on unrelated utility packages.
func TestAnalyzerScopes(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		pkg      string
		want     bool
	}{
		{MapRange, "knnjoin/internal/mapreduce", true},
		{MapRange, "knnjoin/internal/serve", true},
		{MapRange, "knnjoin/internal/stats", false},
		{SqrtFree, "knnjoin/internal/vector", true},
		{SqrtFree, "knnjoin/internal/stats", false},
		{QueryPure, "knnjoin/internal/vindex", true},
		{QueryPure, "knnjoin/internal/serve", false},
		{AtomicSnap, "knnjoin/internal/shard", true},
		{AtomicSnap, "knnjoin/internal/vector", false},
	}
	for _, c := range cases {
		if got := c.analyzer.AppliesTo(c.pkg); got != c.want {
			t.Errorf("%s.AppliesTo(%s) = %v, want %v", c.analyzer.Name, c.pkg, got, c.want)
		}
	}
	for _, a := range All {
		if a.AppliesTo == nil {
			continue
		}
		if a.AppliesTo("knnjoin/internal/doesnotexist") {
			t.Errorf("%s applies to an unknown package", a.Name)
		}
	}
}

// TestByName pins the name → analyzer mapping the -only flag and the
// allow directives rely on.
func TestByName(t *testing.T) {
	for _, a := range All {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the analyzer", a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName(nosuch) returned an analyzer")
	}
}
