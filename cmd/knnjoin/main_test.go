package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knnjoin"
	"knnjoin/internal/dataset"
)

// TestMain lets -workers runs re-execute the test binary as their
// worker processes.
func TestMain(m *testing.M) {
	knnjoin.RunWorkerIfSpawned()
	os.Exit(m.Run())
}

func writeTestCSV(t *testing.T, n int, seed int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pts.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteCSV(f, dataset.Uniform(n, 3, 100, seed)); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	rp, wp, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wp
	defer func() { os.Stdout = old }()
	ferr := f()
	wp.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := rp.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String(), ferr
}

func TestRunSelfJoin(t *testing.T) {
	csv := writeTestCSV(t, 100, 1)
	out, err := captureStdout(t, func() error {
		return run([]string{"-r", csv, "-self", "-k", "2", "-nodes", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 200 { // 100 objects × k=2
		t.Fatalf("got %d result lines, want 200", len(lines))
	}
	// Self-join: first neighbor of object 0 is itself at distance 0.
	if !strings.HasPrefix(lines[0], "0,0,0") {
		t.Fatalf("first line = %q", lines[0])
	}
}

func TestRunTwoDatasets(t *testing.T) {
	r := writeTestCSV(t, 40, 2)
	s := writeTestCSV(t, 60, 3)
	out, err := captureStdout(t, func() error {
		return run([]string{"-r", r, "-s", s, "-k", "3", "-algo", "hbrj", "-nodes", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != 120 {
		t.Fatalf("got %d lines, want 120", n)
	}
}

func TestRunStatsOnly(t *testing.T) {
	csv := writeTestCSV(t, 50, 4)
	out, err := captureStdout(t, func() error {
		return run([]string{"-r", csv, "-self", "-k", "2", "-stats-only"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "" {
		t.Fatalf("stats-only printed result pairs: %q", out)
	}
}

func TestRunPairsMode(t *testing.T) {
	csv := writeTestCSV(t, 100, 7)
	out, err := captureStdout(t, func() error {
		return run([]string{"-r", csv, "-self", "-k", "5", "-pairs", "-exclude-self", "-unordered", "-nodes", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d pair lines, want 5", len(lines))
	}
	for _, line := range lines {
		if strings.Count(line, ",") != 2 {
			t.Fatalf("malformed pair line %q", line)
		}
	}
}

func TestRunRangeMode(t *testing.T) {
	csv := writeTestCSV(t, 120, 8)
	out, err := captureStdout(t, func() error {
		return run([]string{"-r", csv, "-self", "-range", "10", "-nodes", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 120 { // at least every self-match
		t.Fatalf("got %d range lines, want ≥ 120", len(lines))
	}
	for _, line := range lines[:5] {
		if strings.Count(line, ",") != 2 {
			t.Fatalf("malformed line %q", line)
		}
	}
}

func TestRunCovTypeInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "covtype.data")
	var b strings.Builder
	for i := 0; i < 30; i++ {
		for col := 0; col < 55; col++ {
			if col > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", i*55+col)
		}
		b.WriteByte('\n')
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"-r", path, "-self", "-covtype", "-k", "2", "-nodes", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != 60 {
		t.Fatalf("got %d lines, want 60", n)
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	csv := writeTestCSV(t, 80, 5)
	var outputs []string
	for _, algo := range []string{"pgbj", "pbj", "hbrj", "broadcast", "bruteforce"} {
		out, err := captureStdout(t, func() error {
			return run([]string{"-r", csv, "-self", "-k", "3", "-algo", algo, "-nodes", "4"})
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		outputs = append(outputs, out)
	}
	// All algorithms emit the same number of pairs; distances agree per
	// line because ties are broken by ID everywhere.
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("algorithm %d output differs from pgbj", i)
		}
	}

	// -k 2⁴⁰ on 50 objects lists all 50 neighbours of every object, the
	// same lines from the distributed join and the centralized one.
	tiny := writeTestCSV(t, 50, 6)
	outputs = outputs[:0]
	for _, algo := range []string{"pgbj", "bruteforce"} {
		out, err := captureStdout(t, func() error {
			return run([]string{"-r", tiny, "-self", "-k", "1099511627776", "-algo", algo})
		})
		if err != nil {
			t.Fatalf("%s at k=2^40: %v", algo, err)
		}
		if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != 50*50 {
			t.Fatalf("%s at k=2^40: %d result lines, want %d", algo, n, 50*50)
		}
		outputs = append(outputs, out)
	}
	if outputs[0] != outputs[1] {
		t.Fatal("pgbj output at k=2^40 differs from bruteforce")
	}
}

func TestRunErrors(t *testing.T) {
	csv := writeTestCSV(t, 10, 6)
	for _, args := range [][]string{
		{},                         // missing -r
		{"-r", csv},                // missing -s / -self
		{"-r", "missing", "-self"}, // bad file
		{"-r", csv, "-self", "-algo", "quantum"},
		{"-r", csv, "-self", "-algo", "theta"},
		{"-r", csv, "-self", "-algo", "lsh"},
		{"-r", csv, "-self", "-metric", "hamming"},
		{"-r", csv, "-self", "-pivot-strategy", "psychic"},
		{"-r", csv, "-self", "-group-strategy", "astrology"},
		{"-r", csv, "-self", "-k", "0"},
		{"-r", csv, "-self", "-range", "-1"},
		{"-r", csv, "-self", "-range", "NaN"},
		{"-r", csv, "-self", "-pprof"}, // no coordinator without -workers
		{"-r", csv, "-self", "-pprof", "-workers", "2", "-range", "1"},
		{"-r", csv, "-self", "-pprof", "-workers", "2", "-pairs"},
	} {
		if _, err := captureStdout(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

// TestRunAutoAlgo: -algo auto runs Auto's rule, which picks PGBJ on
// this input, so its rows are -algo pgbj's byte for byte.
func TestRunAutoAlgo(t *testing.T) {
	csv := writeTestCSV(t, 600, 9)
	out, err := captureStdout(t, func() error {
		return run([]string{"-r", csv, "-self", "-k", "2", "-algo", "auto", "-nodes", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != 1200 {
		t.Fatalf("got %d result lines, want 1200", n)
	}
	direct, err := captureStdout(t, func() error {
		return run([]string{"-r", csv, "-self", "-k", "2", "-algo", "pgbj", "-nodes", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != direct {
		t.Fatal("auto output differs from the PGBJ join")
	}
}

// TestRunExplain: -explain prints the rule's pick and reason, and joins
// nothing.
func TestRunExplain(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{600, "plan pgbj pivots=48/random/geometric: "},
		{200, "plan bruteforce: "},
	} {
		csv := writeTestCSV(t, c.n, 10)
		out, err := captureStdout(t, func() error {
			return run([]string{"-r", csv, "-self", "-k", "3", "-explain"})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(out, c.want) || strings.Count(out, "\n") != 1 {
			t.Errorf("n=%d: explain printed %q, want one line starting %q", c.n, out, c.want)
		}
	}
}

// TestRunRangeZeroFindsDuplicatesOnly: -range 0 is a range join at
// radius 0, not "no range join": on a self-join it prints each object's
// self pair and its exact duplicates, nothing else.
func TestRunRangeZeroFindsDuplicatesOnly(t *testing.T) {
	base := dataset.Uniform(20, 3, 100, 11)
	objs := make([]knnjoin.Object, 0, 3*len(base))
	for range 3 {
		for _, o := range base {
			objs = append(objs, knnjoin.Object{ID: int64(len(objs)), Point: o.Point})
		}
	}
	path := filepath.Join(t.TempDir(), "dups.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, objs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"-r", path, "-self", "-range", "0", "-nodes", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3*len(objs) {
		t.Fatalf("got %d lines, want %d: each object, its self pair and its two duplicates", len(lines), 3*len(objs))
	}
	for _, line := range lines {
		var rid, sid int64
		var dist float64
		if _, err := fmt.Sscanf(line, "%d,%d,%g", &rid, &sid, &dist); err != nil {
			t.Fatalf("malformed line %q: %v", line, err)
		}
		if dist != 0 || rid%20 != sid%20 {
			t.Fatalf("line %q pairs two distinct points", line)
		}
	}
}

// The strconv row writer must print what fmt's "%d,%d,%g\n" printed,
// byte for byte: integers, both sides of %g's switches to exponent form,
// subnormals and signed zeros.
func TestAppendRowMatchesFmt(t *testing.T) {
	dists := []float64{
		0, math.Copysign(0, -1), 1, 2, 10, 100, 12345, 3.5, 0.1, 1.0 / 3,
		1e-5, 9.999e-5, 1e-4, 0.00012345, // %g goes exponential below 1e-4
		999999, 1e6, 1234567.5, 1e20, 1e21, 1e22, 123456789012345678, // and at 21 digits for the shortest form
		5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3, // subnormals
		math.MaxFloat64, math.Sqrt(2), math.Pi * 1e10, 1e100, 1.5e-100,
		math.Inf(1), math.NaN(),
	}
	ids := []int64{0, 1, -1, 42, 1<<63 - 1, -1 << 63}
	var row []byte
	for i, d := range dists {
		rid, sid := ids[i%len(ids)], ids[(i+1)%len(ids)]
		row = appendRow(row[:0], rid, sid, d)
		if want := fmt.Sprintf("%d,%d,%g\n", rid, sid, d); string(row) != want {
			t.Errorf("appendRow(%d, %d, %v) = %q, fmt prints %q", rid, sid, d, row, want)
		}
	}
	var buf bytes.Buffer
	results := []knnjoin.Result{
		{RID: 7, Neighbors: []knnjoin.Neighbor{{ID: 7, Dist: 0}, {ID: 9, Dist: 1234567.5}}},
		{RID: 8},
		{RID: 9, Neighbors: []knnjoin.Neighbor{{ID: 3, Dist: 1e-5}}},
	}
	rows := &rowWriter{w: &buf}
	for _, res := range results {
		if err := rows.write(res); err != nil {
			t.Fatal(err)
		}
	}
	if want := "7,7,0\n7,9,1.2345675e+06\n9,3,1e-05\n"; buf.String() != want {
		t.Errorf("rowWriter wrote %q, want %q", buf.String(), want)
	}
}

// A NaN or ±Inf coordinate — vector.Parse accepts both spellings — is
// an input error naming the set, the line and the object, not a
// silently wrong join: the CSV reader rejects it before any join runs.
func TestRunRejectsNonFiniteCoordinates(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.csv")
	bad := filepath.Join(dir, "bad.csv")
	os.WriteFile(good, []byte("0,1,2\n1,3,4\n2,5,6\n"), 0o644)
	os.WriteFile(bad, []byte("0,1,2\n17,NaN,4\n2,5,6\n"), 0o644)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-r", bad, "-s", good, "-k", "1"}, "reading R: dataset: line 2: object 17"},
		{[]string{"-r", good, "-s", bad, "-k", "1"}, "reading S: dataset: line 2: object 17"},
		{[]string{"-r", bad, "-self", "-k", "1"}, "reading R: dataset: line 2: object 17"},
		{[]string{"-r", bad, "-self", "-k", "1", "-algo", "bruteforce"}, "reading R: dataset: line 2: object 17"},
		{[]string{"-r", good, "-s", bad, "-range", "3"}, "reading S: dataset: line 2: object 17"},
	} {
		_, err := captureStdout(t, func() error { return run(tc.args) })
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("run(%v) = %v, want a non-finite-coordinate error naming %q", tc.args, err, tc.want)
		}
	}
}

// -v reports the pruned assignment scan's evaluated count beside the
// charged one, then the join reducers' evaluated pivot distances beside
// the charged ones on the next line, and closes with this process's
// peak RSS and GC count where getrusage exists — and, under -workers,
// the largest worker process's peak RSS on the line after.
func TestRunVerboseAssignmentLine(t *testing.T) {
	csv := writeTestCSV(t, 400, 9)
	for _, workers := range []string{"0", "2"} {
		t.Run("workers="+workers, func(t *testing.T) {
			checkVerboseLines(t, workers != "0",
				"-r", csv, "-self", "-k", "2", "-v", "-stats-only", "-workers", workers)
		})
	}
}

func checkVerboseLines(t *testing.T, workers bool, args ...string) {
	t.Helper()
	old := os.Stderr
	rp, wp, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = wp
	_, runErr := captureStdout(t, func() error { return run(args) })
	os.Stderr = old
	wp.Close()
	stderr, _ := io.ReadAll(rp)
	if runErr != nil {
		t.Fatal(runErr)
	}
	var evaluated, charged, redEvaluated, redCharged int64
	lines := strings.Split(string(stderr), "\n")
	for i, line := range lines {
		if n, _ := fmt.Sscanf(strings.TrimSpace(line), "assignment: evaluated %d of %d pivot comparisons", &evaluated, &charged); n == 2 {
			if i+1 < len(lines) {
				fmt.Sscanf(strings.TrimSpace(lines[i+1]), "reducer pivot distances: evaluated %d of %d", &redEvaluated, &redCharged)
			}
			break
		}
	}
	if evaluated <= 0 || evaluated > charged {
		t.Fatalf("-v printed evaluated %d of %d; stderr:\n%s", evaluated, charged, stderr)
	}
	if redEvaluated <= 0 || redEvaluated >= redCharged {
		t.Fatalf("-v printed reducer pivot distances evaluated %d of %d under the assignment line; stderr:\n%s",
			redEvaluated, redCharged, stderr)
	}
	var rssMB, workerMB float64
	var gcs int64
	found, foundWorkers := false, false
	for i, line := range lines {
		if n, _ := fmt.Sscanf(strings.TrimSpace(line), "process: peak RSS %f MB, %d GCs", &rssMB, &gcs); n == 2 {
			found = true
			if i+1 < len(lines) {
				n, _ := fmt.Sscanf(strings.TrimSpace(lines[i+1]), "workers: peak RSS %f MB", &workerMB)
				foundWorkers = n == 1
			}
			break
		}
	}
	_, ok := peakRSS(false)
	if found != ok || (found && rssMB <= 0) {
		t.Fatalf("-v process line: found %v (getrusage available: %v), peak RSS %.1f MB, %d GCs; stderr:\n%s",
			found, ok, rssMB, gcs, stderr)
	}
	if foundWorkers != (ok && workers) || (foundWorkers && workerMB <= 0) {
		t.Fatalf("-v workers line: found %v (want %v), peak RSS %.1f MB; stderr:\n%s",
			foundWorkers, ok && workers, workerMB, stderr)
	}
}
