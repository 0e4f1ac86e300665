package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"knnjoin/internal/dataset"
)

func buildTestIndex(t *testing.T) (csvPath, idxPath string) {
	t.Helper()
	dir := t.TempDir()
	csvPath = filepath.Join(dir, "pts.csv")
	idxPath = filepath.Join(dir, "pts.idx")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteCSV(f, dataset.Uniform(300, 3, 100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"build", "-data", csvPath, "-o", idxPath, "-pivots", "20"}); err != nil {
		t.Fatal(err)
	}
	return csvPath, idxPath
}

func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	rp, wp, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wp
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := rp.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- b.String()
	}()
	ferr := f()
	wp.Close()
	return <-done, ferr
}

func TestBuildQueryRangeStats(t *testing.T) {
	_, idx := buildTestIndex(t)

	out, err := captureStdout(t, func() error {
		return run([]string{"query", "-index", idx, "-point", "50,50,50", "-k", "5"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != 5 {
		t.Fatalf("query returned %d lines, want 5", n)
	}

	out, err = captureStdout(t, func() error {
		return run([]string{"range", "-index", idx, "-point", "50,50,50", "-radius", "30"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, ",") {
		t.Fatalf("range output looks empty: %q", out)
	}

	out, err = captureStdout(t, func() error {
		return run([]string{"stats", "-index", idx})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "objects:    300") || !strings.Contains(out, "partitions: 20") {
		t.Fatalf("stats output = %q", out)
	}
}

func TestErrors(t *testing.T) {
	csv, idx := buildTestIndex(t)
	for _, args := range [][]string{
		{},
		{"explode"},
		{"build"},                                // missing flags
		{"build", "-data", csv},                  // missing -o
		{"build", "-data", "missing", "-o", "x"}, // bad file
		{"build", "-data", csv, "-o", "/nonexistent-dir/x.idx"},
		{"build", "-data", csv, "-o", idx, "-metric", "cosine"},
		{"build", "-data", csv, "-o", idx, "-pivot-strategy", "psychic"},
		{"query", "-index", idx},                          // missing point
		{"query", "-index", "missing", "-point", "1,2,3"}, // bad index
		{"query", "-index", idx, "-point", "not-a-point"}, // bad point
		{"range", "-index", idx, "-point", "1,2,3", "-radius", "-1"},
		{"stats"},
	} {
		if _, err := captureStdout(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

// A NaN or ±Inf coordinate in the data is a build error naming the
// object, not an index that silently misplaces it.
func TestBuildRejectsNonFiniteCoordinates(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("0,1,2\n1,3,4\n23,+Inf,6\n3,7,8\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"build", "-data", bad, "-o", filepath.Join(dir, "bad.idx")})
	if err == nil || !strings.Contains(err.Error(), "object 23") || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("build over an Inf coordinate = %v, want a non-finite-coordinate error naming object 23", err)
	}
}

func TestQueryMatchesAcrossSaveLoad(t *testing.T) {
	_, idx := buildTestIndex(t)
	a, err := captureStdout(t, func() error {
		return run([]string{"query", "-index", idx, "-point", "10,20,30", "-k", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := captureStdout(t, func() error {
		return run([]string{"query", "-index", idx, "-point", "10,20,30", "-k", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("repeated queries on the same index differ")
	}
}
