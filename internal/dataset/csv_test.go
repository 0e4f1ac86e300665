package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/vector"
)

// readCSVSequential is the one-goroutine reader ReadCSV replaced, kept
// as its oracle: a bufio.Scanner with a 1 MiB buffer, one line at a
// time, stopping at the first fault.
func readCSVSequential(r io.Reader) ([]codec.Object, error) {
	var out []codec.Object
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	dim := -1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		idStr, rest, ok := strings.Cut(text, ",")
		if !ok {
			return nil, fmt.Errorf("dataset: line %d: need id,coords", line)
		}
		id, err := strconv.ParseInt(strings.TrimSpace(idStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad id: %w", line, err)
		}
		p, err := vector.Parse(rest)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("dataset: line %d: object %d has a non-finite coordinate", line, id)
		}
		if dim == -1 {
			dim = p.Dim()
		} else if p.Dim() != dim {
			return nil, fmt.Errorf("dataset: line %d: dimension %d differs from %d", line, p.Dim(), dim)
		}
		out = append(out, codec.Object{ID: id, Point: p})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// csvBlockSizes are the forced block sizes the oracle tests read at:
// a byte, a few bytes, a few lines, and ReadCSV's own.
var csvBlockSizes = []int{1, 3, 64, 1000, 1 << 20}

// sameRead reports how readCSV's result differs from the oracle's:
// objects bit for bit, errors by their exact text.
func sameRead(got []codec.Object, gotErr error, want []codec.Object, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("%d objects (nil %v), want %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if got[i].ID != want[i].ID || len(got[i].Point) != len(want[i].Point) {
			return fmt.Sprintf("object %d: %v, want %v", i, got[i], want[i])
		}
		for d := range want[i].Point {
			if math.Float64bits(got[i].Point[d]) != math.Float64bits(want[i].Point[d]) {
				return fmt.Sprintf("object %d coordinate %d: %v, want %v", i, d, got[i].Point[d], want[i].Point[d])
			}
		}
	}
	return ""
}

// checkAgainstOracle reads in at every forced block size under
// GOMAXPROCS 1 and 4 and compares each read with the oracle's.
func checkAgainstOracle(t *testing.T, name, in string) {
	t.Helper()
	want, wantErr := readCSVSequential(strings.NewReader(in))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, size := range csvBlockSizes {
			got, err := readCSV(strings.NewReader(in), size)
			if diff := sameRead(got, err, want, wantErr); diff != "" {
				t.Fatalf("%s, GOMAXPROCS %d, block size %d: %s", name, procs, size, diff)
			}
		}
	}
}

// csvCorpus covers what a line can hold and where a block can cut it.
func csvCorpus() map[string]string {
	var rows strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&rows, "%d,%d.25,%d,-%d.5e-3\n", i, i, 7*i, i)
	}
	long := "7," + strings.Repeat("1.5,", maxCSVLine/4) + "2\n"
	// fixed lines are 16 bytes, so a 64-byte block holds exactly 4: in
	// "ragged at block" the block whose first object has the wrong
	// dimensionality also holds a later fault.
	fixed := func(l string) string { return fmt.Sprintf("%-15s\n", l) }
	pad := func(n int) string { // a valid line of exactly n bytes
		return "5,6" + strings.Repeat(" ", n-3)
	}
	return map[string]string{
		"empty":            "",
		"blank lines only": "\n\n \n\t\n",
		"plain":            "1,2,3\n4,5,6\n",
		"crlf":             "1,2,3\r\n4,5,6\r\n\r\n7,8,9\r\n",
		"blank lines":      "\n\n1,2\n\n\n3,4\n\n",
		"spaces":           "  1 , 2 ,\t3  \n 4,5, 6\n\v8 ,9,10\u0085\n",
		"no final newline": "1,2,3\n4,5,6",
		"final cr":         "1,2,3\n4,5,6\r",
		"inf":              "1,2\n2,inf\n",
		"nan":              "1,NaN,2\n",
		"+Inf":             "1,1\n2,+Inf\n3,x\n",
		"bad id":           "x,1,2\n",
		"float id":         "1.5,2\n",
		"huge id":          "99999999999999999999,1\n",
		"no comma":         "1,2\nnoid\n",
		"empty point":      "1,\n",
		"empty field":      "1,2,\n",
		"empty id":         ",1\n",
		"bad utf-8":        "1,\xff\n",
		"rows":             rows.String(),
		"ragged late":      rows.String() + "300,1,2\n" + rows.String(),
		"ragged block":     rows.String() + strings.ReplaceAll(rows.String(), ",-", "\n-1,"),
		"ragged then bad":  rows.String() + "300,1,2\n301,x\n",
		"ragged at block":  strings.Repeat(fixed("1,2,3"), 16) + fixed("2,3") + fixed("3,4") + fixed("x,1") + fixed("5,6"),
		"bad then ragged":  rows.String() + "300,x\n301,1,2\n",
		"ragged first":     "1,2\n" + rows.String(),
		"long line":        rows.String() + long + "1,2,3,4\n",
		"long last line":   rows.String() + strings.TrimSuffix(long, "\n"),
		"bad before long":  "1,2\n2,x\n" + long,
		"ragged then long": "1,2\n2,3,4\n" + long,
		"line at limit":    "1,2\n" + pad(maxCSVLine-1) + "\n" + pad(maxCSVLine) + "\n",
		"last at limit":    "1,2\n" + pad(maxCSVLine-1),
		"last over limit":  "1,2\n" + pad(maxCSVLine),
	}
}

// TestReadCSVMatchesSequential: the block-parallel reader returns the
// sequential reader's objects bit for bit and its errors to the letter,
// line numbers included, at every block size and GOMAXPROCS.
func TestReadCSVMatchesSequential(t *testing.T) {
	for name, in := range csvCorpus() {
		checkAgainstOracle(t, name, in)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, Forest(3000, 7)); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, "forest", buf.String())
}

// An input that fails mid-way reports its last, unterminated line's
// fault first and the read error only after every line parsed.
func TestReadCSVReadError(t *testing.T) {
	boom := fmt.Errorf("boom")
	for _, in := range []string{"1,2\n3,4\n5,", "1,2\n3,4\n5,6", "1,2\n3"} {
		want, wantErr := readCSVSequential(io.MultiReader(strings.NewReader(in), &failingReader{boom}))
		for _, size := range csvBlockSizes {
			got, err := readCSV(io.MultiReader(strings.NewReader(in), &failingReader{boom}), size)
			if diff := sameRead(got, err, want, wantErr); diff != "" {
				t.Fatalf("%q, block size %d: %s", in, size, diff)
			}
		}
	}
}

type failingReader struct{ err error }

func (f *failingReader) Read([]byte) (int, error) { return 0, f.err }

// The objects of one block share one coordinate array: reading a large
// input allocates per block, not per line.
func TestReadCSVAllocatesPerBlock(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, Forest(20000, 3)); err != nil {
		t.Fatal(err)
	}
	in := buf.Bytes()
	blocks := len(in)>>20 + 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ReadCSV(bytes.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(20*blocks + 4*runtime.GOMAXPROCS(0) + 20); allocs > limit {
		t.Fatalf("reading 20000 lines in %d blocks made %.0f allocations, want at most %.0f", blocks, allocs, limit)
	}
}

// FuzzReadCSV compares the block-parallel reader with the sequential
// oracle on arbitrary input, at every forced block size under
// GOMAXPROCS 1 and 4.
func FuzzReadCSV(f *testing.F) {
	for _, in := range csvCorpus() {
		if len(in) < 4096 {
			f.Add(in)
		}
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkAgainstOracle(t, "input", in)
	})
}
