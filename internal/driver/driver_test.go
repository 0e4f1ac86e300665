package driver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dfs"
	"knnjoin/internal/vector"
)

func obj(id int64, x float64) codec.Object {
	return codec.Object{ID: id, Point: vector.Point{x}}
}

// newEnv builds an in-memory environment of nodes nodes and chunk
// records per split.
func newEnv(t *testing.T, nodes, chunk int) *Env {
	t.Helper()
	env, err := NewEnv(Config{Nodes: nodes, ChunkRecords: chunk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	return env
}

func TestEnvLoadAndResults(t *testing.T) {
	env := newEnv(t, 4, 2)
	if err := env.LoadRS([]codec.Object{obj(1, 0), obj(2, 1)}, []codec.Object{obj(7, 5)}); err != nil {
		t.Fatal(err)
	}
	if got := env.FS.Size(RFile); got != 2 {
		t.Fatalf("R file has %d records, want 2", got)
	}
	if got := env.FS.Size(SFile); got != 1 {
		t.Fatalf("S file has %d records, want 1", got)
	}
	// Loaded records must round-trip as source-tagged objects.
	recs, err := env.FS.Read(SFile)
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := codec.DecodeTagged(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if tagged.Src != codec.FromS || tagged.ID != 7 {
		t.Fatalf("S record decoded as %+v", tagged)
	}

	// Results reads the canonical output file sorted by RID.
	env.FS.Write(OutFile, []dfs.Record{
		codec.EncodeResult(codec.Result{RID: 9}),
		codec.EncodeResult(codec.Result{RID: 2, Neighbors: []codec.Neighbor{{ID: 7, Dist: 4}}}),
	})
	results, err := env.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].RID != 2 || results[1].RID != 9 {
		t.Fatalf("results = %+v, want RIDs 2, 9", results)
	}
	if len(results[0].Neighbors) != 1 || results[0].Neighbors[0].ID != 7 {
		t.Fatalf("neighbors lost in round trip: %+v", results[0])
	}
}

// Mixed dimensionalities must be rejected at dataset load — past this
// point they would meet inside a reducer, where Metric.Dist panics.
func TestLoadRSRejectsMixedDimensions(t *testing.T) {
	twoD := codec.Object{ID: 3, Point: vector.Point{1, 2}}
	env := newEnv(t, 2, 0)
	if err := env.LoadRS([]codec.Object{obj(1, 0), twoD}, nil); err == nil {
		t.Error("mixed dims within R accepted")
	}
	if err := env.LoadRS([]codec.Object{obj(1, 0)}, []codec.Object{twoD}); err == nil {
		t.Error("R/S dim mismatch accepted")
	}
	if err := CheckObjects(nil, []codec.Object{twoD, obj(9, 1)}); err == nil {
		t.Error("mixed dims within S accepted")
	}
	if err := CheckObjects(nil, nil); err != nil {
		t.Errorf("empty datasets rejected: %v", err)
	}
}

func TestReadResultsErrors(t *testing.T) {
	env := newEnv(t, 1, 0)
	if _, err := env.Results(); err == nil {
		t.Error("missing output file must error")
	}
	env.FS.Write(OutFile, []dfs.Record{{1, 2, 3}})
	if _, err := env.Results(); err == nil {
		t.Error("corrupt result record must error")
	}
}

// NaN and ±Inf coordinates are input errors at load, naming the set
// and the object: past this point a NaN compares false with everything
// and the triangle inequality the pruning rests on means nothing.
func TestLoadRSRejectsNonFiniteCoordinates(t *testing.T) {
	good := []codec.Object{obj(1, 0), obj(2, 1)}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tainted := []codec.Object{obj(3, 2), obj(41, bad)}
		for _, tc := range []struct {
			name string
			r, s []codec.Object
			want string
		}{
			{"R", tainted, good, "R object 41"},
			{"S", good, tainted, "S object 41"},
			{"self-join", tainted, tainted, "R object 41"},
		} {
			err := newEnv(t, 2, 0).LoadRS(tc.r, tc.s)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "non-finite") {
				t.Errorf("%s with %v: LoadRS = %v, want a non-finite-coordinate error naming %q", tc.name, bad, err, tc.want)
			}
		}
	}
	// The first object of a set is checked like the rest.
	if err := CheckObjects([]codec.Object{obj(5, math.NaN())}, nil); err == nil {
		t.Error("NaN in the first object accepted")
	}
}

// readResultsOracle is the output path EachResult replaced: decode every
// record in write order, then sort the decoded slice by R ID.
func readResultsOracle(fs dfs.Store, name string) ([]codec.Result, error) {
	recs, err := fs.Read(name)
	if err != nil {
		return nil, err
	}
	out := make([]codec.Result, len(recs))
	for i, r := range recs {
		res, err := codec.DecodeResult(r)
		if err != nil {
			return nil, fmt.Errorf("driver: result record %d of %q: %w", i, name, err)
		}
		out[i] = res
	}
	SortResults(out)
	return out, nil
}

// EachResult must hand out exactly the oracle's results in the oracle's
// order — duplicate R IDs included, whose relative order is whatever
// the unstable sort makes of them — and fail on a damaged file with the
// oracle's error, before calling fn at all.
func TestEachResultMatchesReadResults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var recs []dfs.Record
	for i := 0; i < 3000; i++ {
		res := codec.Result{RID: rng.Int63n(500)} // many duplicate R IDs
		for j := rng.Intn(4); j > 0; j-- {
			res.Neighbors = append(res.Neighbors, codec.Neighbor{ID: int64(i), Dist: rng.Float64()})
		}
		recs = append(recs, codec.EncodeResult(res))
	}
	fs := dfs.New(0)
	fs.Write("out", recs)
	want, err := readResultsOracle(fs, "out")
	if err != nil {
		t.Fatal(err)
	}
	var got []codec.Result
	if err := EachResult(fs, "out", func(r codec.Result) error {
		got = append(got, r.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("EachResult's stream differs from decode-all plus SortResults")
	}
	collected, err := ReadResults(fs, "out")
	if err != nil || !reflect.DeepEqual(collected, want) {
		t.Fatalf("ReadResults differs from decode-all plus SortResults (err %v)", err)
	}
	stop := errors.New("stop")
	calls := 0
	if err := EachResult(fs, "out", func(codec.Result) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("fn's error: EachResult returned %v after %d calls, want %v after 1", err, calls, stop)
	}

	// The oracle's order among equal R IDs is not write order, so a
	// stable sort would fail the comparison above.
	stable := make([]codec.Result, len(recs))
	for i := range recs {
		stable[i], _ = codec.DecodeResult(recs[i])
	}
	sort.SliceStable(stable, func(i, j int) bool { return stable[i].RID < stable[j].RID })
	if reflect.DeepEqual(stable, want) {
		t.Fatal("the input has no duplicate R IDs that an unstable sort reorders")
	}

	full := codec.EncodeResult(codec.Result{RID: 4, Neighbors: []codec.Neighbor{{ID: 1, Dist: 1}, {ID: 2, Dist: 2}}})
	for _, bad := range []dfs.Record{
		full[:5],           // shorter than the header
		full[:len(full)-1], // last neighbor cut short
		append(full[:8:8], 0xff, 0xff, 0xff, 0x7f), // a count no record holds
	} {
		damaged := append(append([]dfs.Record{}, recs[:2000]...), bad)
		damaged = append(damaged, recs[2000:]...)
		fs.Write("bad", damaged)
		_, wantErr := readResultsOracle(fs, "bad")
		calls := 0
		err := EachResult(fs, "bad", func(codec.Result) error { calls++; return nil })
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() || calls != 0 {
			t.Errorf("damaged record of %d bytes: EachResult = %v after %d calls, want %v after none", len(bad), err, calls, wantErr)
		}
	}
	if err := EachResult(fs, "missing", func(codec.Result) error { return nil }); err == nil {
		t.Error("missing file accepted")
	}
}
