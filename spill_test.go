package knnjoin

import (
	"math"
	"os"
	"testing"

	"knnjoin/internal/dataset"
)

// spillSizes picks dataset sizes: small enough for every PR's CI run
// under -short, larger otherwise.
func spillSizes(t *testing.T) (nr, ns int) {
	if testing.Short() {
		return 150, 170
	}
	return 420, 500
}

// assertIdentical requires bit-identical results: same rows, same
// neighbor ids, same float64 distance bits — the spill backend replays
// the exact record sequences of the in-memory shuffle, so nothing softer
// than equality is acceptable.
func assertIdentical(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].RID != want[i].RID || len(got[i].Neighbors) != len(want[i].Neighbors) {
			t.Fatalf("%s: row %d shape differs: %+v vs %+v", label, i, got[i], want[i])
		}
		for j := range want[i].Neighbors {
			g, w := got[i].Neighbors[j], want[i].Neighbors[j]
			if g.ID != w.ID || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
				t.Fatalf("%s: r %d neighbor %d differs: %+v vs %+v", label, got[i].RID, j, g, w)
			}
		}
	}
}

// Every join algorithm must produce byte-identical output on the
// out-of-core backend — with a memory limit far below the dataset size,
// so the shuffle genuinely spills — as on the in-memory backend.
func TestSpillBackendMatchesInMemoryAcrossAlgorithms(t *testing.T) {
	nr, ns := spillSizes(t)
	r := dataset.Uniform(nr, 4, 100, 11)
	s := dataset.Uniform(ns, 4, 100, 12)
	// 16KiB is far below the tagged datasets (4 dims ≈ 57B/record before
	// replication), so map tasks must spill their runs.
	const memLimit = 16 << 10

	for _, alg := range []Algorithm{PGBJ, PBJ, HBRJ, Broadcast, ZKNN} {
		opts := Options{K: 4, Algorithm: alg, Nodes: 5, Seed: 3, ChunkRecords: 64}
		want, _, err := Join(r, s, opts)
		if err != nil {
			t.Fatalf("%v in-memory: %v", alg, err)
		}
		opts.MemLimit = memLimit
		got, st, err := Join(r, s, opts)
		if err != nil {
			t.Fatalf("%v spill: %v", alg, err)
		}
		assertIdentical(t, alg.String(), got, want)
		if st.ShuffleBytes <= memLimit {
			t.Fatalf("%v: shuffle %dB did not exceed the %dB limit — the spill path was not exercised",
				alg, st.ShuffleBytes, memLimit)
		}
	}
}

// The sibling operators ride the same backend: θ-range join and top-k
// closest pairs must also be spill-invariant.
func TestSpillBackendMatchesInMemoryForSiblingOperators(t *testing.T) {
	nr, ns := spillSizes(t)
	r := dataset.Uniform(nr, 3, 100, 21)
	s := dataset.Uniform(ns, 3, 100, 22)
	const memLimit = 16 << 10

	wantR, _, err := RangeJoin(r, s, RangeOptions{Radius: 25, Nodes: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gotR, _, err := RangeJoin(r, s, RangeOptions{Radius: 25, Nodes: 4, Seed: 5, MemLimit: memLimit})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "range-join", gotR, wantR)

	wantP, _, err := ClosestPairs(r, s, PairOptions{K: 25, Nodes: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gotP, _, err := ClosestPairs(r, s, PairOptions{K: 25, Nodes: 4, Seed: 5, MemLimit: memLimit})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotP) != len(wantP) {
		t.Fatalf("pairs: %d results, want %d", len(gotP), len(wantP))
	}
	for i := range wantP {
		if gotP[i].RID != wantP[i].RID || gotP[i].SID != wantP[i].SID ||
			math.Float64bits(gotP[i].Dist) != math.Float64bits(wantP[i].Dist) {
			t.Fatalf("pairs: row %d differs: %+v vs %+v", i, gotP[i], wantP[i])
		}
	}
}

// A spilled join must still match BruteForce — closing the loop with
// the correctness oracle — and the caller-provided spill root must be
// left in place (the caller owns it), empty again once the join's
// private env subdirectory is cleaned up.
func TestSpillBackendAgainstBruteForce(t *testing.T) {
	nr, ns := spillSizes(t)
	r := dataset.Uniform(nr, 4, 100, 31)
	s := dataset.Uniform(ns, 4, 100, 32)

	want, _, err := Join(r, s, Options{K: 5, Algorithm: BruteForce})
	if err != nil {
		t.Fatal(err)
	}
	spillRoot := t.TempDir()
	got, _, err := Join(r, s, Options{
		K: 5, Algorithm: PGBJ, Nodes: 6, Seed: 2,
		SpillDir: spillRoot, MemLimit: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertAgree(t, got, want)

	assertEmptyDir(t, spillRoot, "the caller's spill root")

	// Worker processes read their splits from a disk DFS, which the Env
	// keeps in a temporary directory when no spill root is given: the
	// join must remove it, whether it succeeds or fails.
	if testing.Short() {
		return
	}
	for _, fail := range []bool{false, true} {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		opts := Options{K: 5, Algorithm: PGBJ, Nodes: 6, Seed: 2, Workers: 2}
		if fail {
			opts.Faults = &FaultPlan{Events: []FaultEvent{
				{Worker: -1, Task: "pgbj-join/map/0", Point: AtTaskStart, Action: ActError},
			}}
		}
		got, _, err := Join(r, s, opts)
		if (err != nil) != fail {
			t.Fatalf("join on 2 workers (fault planted: %v): %v", fail, err)
		}
		if !fail {
			assertAgree(t, got, want)
		}
		assertEmptyDir(t, tmp, "TMPDIR")
	}
}

// assertEmptyDir fails unless dir exists and holds nothing.
func assertEmptyDir(t *testing.T, dir, what string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s was removed: %v", what, err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("join left debris in %s: %v", what, names)
	}
}
