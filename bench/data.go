package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// inputs are the files one run's programs read, all made from --seed.
type inputs struct {
	R, S  string // CSV paths; equal for the self-join
	Self  bool
	RSize int
	SSize int
}

// joinArgs are the dataset flags of every knnjoin process of the run.
func (in inputs) joinArgs() []string {
	if in.Self {
		return []string{"-r", in.R, "-self"}
	}
	return []string{"-r", in.R, "-s", in.S}
}

// generate runs cmd/datagen for the workload. The seed reaches the
// programs under test only through these files.
func (r *runner) generate() (inputs, error) {
	dir, sc, seed := r.dir, r.sc, r.seed
	gen := func(out string, args ...string) error {
		_, err := r.kids.run(r.bin("datagen"), append(args, "-o", out), "")
		return err
	}
	switch r.w.Kind {
	case "osm":
		p := filepath.Join(dir, "osm.csv")
		err := gen(p, "-kind", "osm", "-n", fmt.Sprint(sc.OSMN), "-seed", fmt.Sprint(seed))
		return inputs{R: p, S: p, Self: true, RSize: sc.OSMN, SSize: sc.OSMN}, err
	case "forest":
		in := inputs{
			R: filepath.Join(dir, "forest_r.csv"), S: filepath.Join(dir, "forest_s.csv"),
			RSize: sc.ForestN, SSize: sc.ForestN * sc.Expand,
		}
		if err := gen(in.R, "-kind", "forest", "-n", fmt.Sprint(sc.ForestN), "-seed", fmt.Sprint(seed+1)); err != nil {
			return in, err
		}
		err := gen(in.S, "-kind", "forest", "-n", fmt.Sprint(sc.ForestN), "-expand", fmt.Sprint(sc.Expand), "-seed", fmt.Sprint(seed))
		return in, err
	}
	return inputs{}, fmt.Errorf("unknown dataset kind %q", r.w.Kind)
}

// pickRows reads the CSV lines at the given row numbers.
func pickRows(path string, rows []int) (map[int]string, error) {
	want := make(map[int]bool, len(rows))
	for _, i := range rows {
		want[i] = true
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[int]string, len(rows))
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for i := 0; sc.Scan(); i++ {
		if want[i] {
			out[i] = sc.Text()
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) != len(want) {
		return nil, fmt.Errorf("%s: wanted %d rows, found %d", path, len(want), len(out))
	}
	return out, nil
}

// parseRow splits an "id,x1,x2,..." line.
func parseRow(line string) (int64, []float64, error) {
	fields := strings.Split(line, ",")
	id, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("row %q: %w", line, err)
	}
	pt := make([]float64, len(fields)-1)
	for i, f := range fields[1:] {
		if pt[i], err = strconv.ParseFloat(f, 64); err != nil {
			return 0, nil, fmt.Errorf("row %q: %w", line, err)
		}
	}
	return id, pt, nil
}

// pool is the run's set of distinct query points and the order they are
// asked in.
type pool struct {
	Points [][]float64
	Bodies [][]byte // the /knn request body of each point
	Stream []uint32 // pool indexes in request order
}

// streamLen outlasts any run: 60 s at 20 000 requests per second.
const streamLen = 1200000

// buildPool draws n rows of the indexed dataset, moves every coordinate
// by up to ±0.5 % of its range so no query equals a data point or another
// query, and fixes the request order: uniform draws for a cold stream
// (pool ≫ cache, almost every request misses), Zipf s=1.3 for a hot one.
func buildPool(csv string, rows, n int, k int, hot bool, seed int64) (*pool, error) {
	rng := rand.New(rand.NewSource(seed))
	if n > rows {
		n = rows
	}
	picked := rng.Perm(rows)[:n]
	lines, err := pickRows(csv, picked)
	if err != nil {
		return nil, err
	}
	p := &pool{Points: make([][]float64, n), Bodies: make([][]byte, n)}
	for i, row := range picked {
		if _, p.Points[i], err = parseRow(lines[row]); err != nil {
			return nil, err
		}
	}
	dim := len(p.Points[0])
	for d := 0; d < dim; d++ {
		min, max := p.Points[0][d], p.Points[0][d]
		for _, pt := range p.Points {
			if pt[d] < min {
				min = pt[d]
			}
			if pt[d] > max {
				max = pt[d]
			}
		}
		for _, pt := range p.Points {
			pt[d] += (rng.Float64() - 0.5) * 0.01 * (max - min)
		}
	}
	for i, pt := range p.Points {
		p.Bodies[i] = knnBody(pt, k)
	}
	p.Stream = make([]uint32, streamLen)
	if hot {
		z := rand.NewZipf(rng, 1.3, 1, uint64(n-1))
		for i := range p.Stream {
			p.Stream[i] = uint32(z.Uint64())
		}
	} else {
		for i := range p.Stream {
			p.Stream[i] = uint32(rng.Intn(n))
		}
	}
	return p, nil
}

func appendPoint(b []byte, pt []float64) []byte {
	for i, v := range pt {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return b
}

func knnBody(pt []float64, k int) []byte {
	b := append([]byte(nil), `{"point":[`...)
	b = appendPoint(b, pt)
	b = append(b, `],"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	return append(b, '}')
}

// sampleIDs draws n distinct numbers below limit, ascending.
func sampleIDs(limit, n int, seed int64) []int {
	if n > limit {
		n = limit
	}
	ids := rand.New(rand.NewSource(seed)).Perm(limit)[:n]
	sort.Ints(ids)
	return ids
}
