// Command knnjoin runs a k-nearest-neighbor join over CSV datasets using
// any of the implemented algorithms and prints the result pairs plus the
// paper's cost measures.
//
// Usage:
//
//	knnjoin -r r.csv -s s.csv -k 10 -algo pgbj -nodes 16
//	knnjoin -r pts.csv -self -k 5 -algo hbrj -stats-only
//	knnjoin -r pts.csv -self -k 20 -pairs -exclude-self -unordered
//	knnjoin -r huge.csv -self -k 10 -mem-limit 256M   # out-of-core backend
//	knnjoin -r pts.csv -self -k 10 -algo auto          # Auto's rule picks
//	knnjoin -r pts.csv -self -k 10 -explain            # print Auto's pick, run nothing
//	knnjoin -r pts.csv -self -k 10 -workers 4          # multi-process cluster mode
//
// Input files hold one "id,x1,x2,..." line per object (see cmd/datagen).
// Output lines are "rID,sID,distance", one per result pair — ordered by
// rID then ascending distance for a kNN join, or globally ascending by
// distance in -pairs mode (the top-k closest-pairs join of Kim & Shim).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"knnjoin"
	"knnjoin/internal/dataset"
	"knnjoin/internal/obs"
	"knnjoin/internal/stats"
)

func main() {
	// With -workers N the coordinator re-executes this binary as its
	// worker processes; spawned copies must turn into workers before
	// anything else runs.
	knnjoin.RunWorkerIfSpawned()
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "knnjoin:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("knnjoin", flag.ContinueOnError)
	rPath := fs.String("r", "", "CSV file of the outer dataset R (required)")
	sPath := fs.String("s", "", "CSV file of the inner dataset S")
	self := fs.Bool("self", false, "self-join: use R as S")
	k := fs.Int("k", 10, "number of nearest neighbors")
	algoName := fs.String("algo", "pgbj", "algorithm: pgbj | pbj | hbrj | broadcast | bruteforce | zknn | auto")
	metricName := fs.String("metric", "l2", "distance metric: l2 | l1 | linf")
	nodes := fs.Int("nodes", 4, "simulated cluster nodes")
	numPivots := fs.Int("pivots", 0, "number of pivots (0 = auto)")
	pivotStrat := fs.String("pivot-strategy", "random", "pivot selection: random | farthest | kmeans")
	groupStrat := fs.String("group-strategy", "geometric", "grouping: geometric | greedy")
	seed := fs.Int64("seed", 1, "random seed")
	statsOnly := fs.Bool("stats-only", false, "print cost statistics, not result pairs")
	pairsMode := fs.Bool("pairs", false, "top-k closest pairs of R×S instead of a kNN join")
	excludeSelf := fs.Bool("exclude-self", false, "with -pairs: drop pairs of an object with itself")
	unordered := fs.Bool("unordered", false, "with -pairs: report each unordered pair once (rID < sID)")
	radius := fs.Float64("range", 0, "θ-range join with this radius (0 finds exact duplicates) instead of a kNN join")
	covtype := fs.Bool("covtype", false, "inputs are UCI covtype.data[.gz] files (10 quantitative attributes)")
	spillDir := fs.String("spill-dir", "", "out-of-core backend: spill DFS chunks and shuffle runs under this directory")
	memLimitFlag := fs.String("mem-limit", "", "resident shuffle budget, e.g. 64M (spills to -spill-dir or a temp dir; with -workers it bounds the merge buffers)")
	explain := fs.Bool("explain", false, "print the configuration -algo auto runs, and why, and exit without joining")
	workers := fs.Int("workers", 0, "run MapReduce jobs on this many worker processes (0 = goroutine workers in this process)")
	traceDir := fs.String("trace", "", "write observability spans as JSONL under this directory (render with knntrace)")
	pprofOn := fs.Bool("pprof", false, "with -workers, kNN joins only: expose net/http/pprof on the coordinator's HTTP server")
	verbose := fs.Bool("v", false, "print the per-job breakdown (shuffle, spill, map/reduce walls)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rangeSet := false
	fs.Visit(func(f *flag.Flag) { rangeSet = rangeSet || f.Name == "range" })
	if *cpuProfile != "" {
		stop, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, "knnjoin: heap profile:", err)
			}
		}()
	}
	var memLimit int64
	if *memLimitFlag != "" {
		var err error
		if memLimit, err = stats.ParseBytes(*memLimitFlag); err != nil {
			return fmt.Errorf("-mem-limit: %w", err)
		}
	}
	if !(*radius >= 0) { // NaN fails every comparison
		return fmt.Errorf("-range must be a non-negative radius, got %g", *radius)
	}
	if *pprofOn && *workers <= 0 {
		return fmt.Errorf("-pprof needs -workers: it is served by the worker coordinator")
	}
	if *pprofOn && (rangeSet || *pairsMode) {
		return fmt.Errorf("-pprof works only for kNN joins, not with -range or -pairs")
	}
	if *rPath == "" {
		return fmt.Errorf("-r is required")
	}
	if *sPath == "" && !*self {
		return fmt.Errorf("provide -s or -self")
	}

	algo, err := knnjoin.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	metric, err := knnjoin.ParseMetric(*metricName)
	if err != nil {
		return err
	}
	ps, err := knnjoin.ParsePivotStrategy(*pivotStrat)
	if err != nil {
		return err
	}
	gs, err := knnjoin.ParseGroupStrategy(*groupStrat)
	if err != nil {
		return err
	}

	r, err := readInput(*rPath, *covtype)
	if err != nil {
		return fmt.Errorf("reading R: %w", err)
	}
	s := r
	if !*self {
		if s, err = readInput(*sPath, *covtype); err != nil {
			return fmt.Errorf("reading S: %w", err)
		}
	}

	opts := knnjoin.Options{
		K: *k, Algorithm: algo, Metric: metric, Nodes: *nodes,
		NumPivots: *numPivots, PivotStrategy: ps, GroupStrategy: gs, Seed: *seed,
		SpillDir: *spillDir, MemLimit: memLimit, Workers: *workers,
		TraceDir: *traceDir, Pprof: *pprofOn,
	}
	if *explain {
		plan, err := knnjoin.ExplainAuto(r, s, opts)
		if err != nil {
			return err
		}
		fmt.Println(plan)
		return nil
	}

	// kNN and range rows go to stdout straight from the join's output
	// stream; the stats follow on stderr once the join has returned.
	out := bufio.NewWriter(os.Stdout)
	rows := &rowWriter{w: out}
	each := rows.write
	if *statsOnly {
		each = func(knnjoin.Result) error { return nil }
	}

	if rangeSet {
		st, err := knnjoin.RangeJoinTo(r, s, knnjoin.RangeOptions{
			Radius: *radius, Metric: metric, Nodes: *nodes,
			NumPivots: *numPivots, PivotStrategy: ps, Seed: *seed,
			SpillDir: *spillDir, MemLimit: memLimit,
			Workers: *workers, TraceDir: *traceDir,
		}, each)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, st.String())
		if *verbose {
			printJobs(st, *workers > 0)
		}
		return out.Flush()
	}

	if *pairsMode {
		pairs, st, err := knnjoin.ClosestPairs(r, s, knnjoin.PairOptions{
			K: *k, Metric: metric, Nodes: *nodes,
			ExcludeSelf: *excludeSelf, Unordered: *unordered, Seed: *seed,
			SpillDir: *spillDir, MemLimit: memLimit, Workers: *workers,
			TraceDir: *traceDir,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, st.String())
		if *verbose {
			printJobs(st, *workers > 0)
		}
		if *statsOnly {
			return nil
		}
		var row []byte
		for _, p := range pairs {
			row = appendRow(row[:0], p.RID, p.SID, p.Dist)
			if _, err := out.Write(row); err != nil {
				return err
			}
		}
		return out.Flush()
	}

	st, err := knnjoin.JoinTo(r, s, opts, each)
	if err != nil {
		return err
	}

	if st.Plan != nil {
		fmt.Fprintln(os.Stderr, st.Plan.String())
	}
	fmt.Fprintln(os.Stderr, st.String())
	for _, p := range st.Phases {
		fmt.Fprintf(os.Stderr, "  %-20s %v\n", p.Name, p.Wall)
	}
	if *verbose {
		printJobs(st, *workers > 0)
	}
	return out.Flush()
}

// printJobs writes the -v detail to stderr: how many of the charged
// nearest-pivot comparisons the pruned assignment scan evaluated and how
// many of the charged reducer pivot distances the join reducers
// computed, the per-job actuals table — where each job's shuffle bytes,
// spill bytes and wall time (split into map and reduce phases) went —
// and this process's peak resident set and garbage-collection count.
// With workers it adds the peak resident set of the largest worker
// process, which the join has reaped by the time it returns.
func printJobs(st *knnjoin.Stats, workers bool) {
	if st.AssignCharged > 0 {
		fmt.Fprintf(os.Stderr, "  assignment: evaluated %d of %d pivot comparisons\n",
			st.AssignEvaluated, st.AssignCharged)
	}
	if st.ReducerPivotCharged > 0 {
		fmt.Fprintf(os.Stderr, "  reducer pivot distances: evaluated %d of %d\n",
			st.ReducerPivotEvaluated, st.ReducerPivotCharged)
	}
	if len(st.Jobs) > 0 {
		fmt.Fprintf(os.Stderr, "  %-24s %12s %12s %12s %12s %12s\n",
			"job", "shuffle", "spilled", "map", "reduce", "wall")
	}
	for _, j := range st.Jobs {
		fmt.Fprintf(os.Stderr, "  %-24s %12s %12s %12v %12v %12v\n",
			j.Name, stats.FormatBytes(j.ShuffleBytes), stats.FormatBytes(j.SpilledBytes),
			j.MapWall.Round(time.Microsecond), j.ReduceWall.Round(time.Microsecond),
			j.Wall.Round(time.Microsecond))
	}
	if rss, ok := peakRSS(false); ok {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Fprintf(os.Stderr, "  process: peak RSS %.1f MB, %d GCs\n", float64(rss)/(1<<20), ms.NumGC)
	}
	if rss, ok := peakRSS(true); ok && workers {
		fmt.Fprintf(os.Stderr, "  workers: peak RSS %.1f MB\n", float64(rss)/(1<<20))
	}
}

// rowWriter writes each result's neighbors as "rID,sID,distance" lines.
type rowWriter struct {
	w   io.Writer
	row []byte
}

func (rw *rowWriter) write(res knnjoin.Result) error {
	for _, nb := range res.Neighbors {
		rw.row = appendRow(rw.row[:0], res.RID, nb.ID, nb.Dist)
		if _, err := rw.w.Write(rw.row); err != nil {
			return err
		}
	}
	return nil
}

// appendRow appends one output line, byte for byte what
// fmt.Fprintf("%d,%d,%g\n") prints: the rows are written after the last
// reducer, on one goroutine, and fmt's per-row formatting state was a
// tenth of a 10⁶-row join.
func appendRow(b []byte, rid, sid int64, dist float64) []byte {
	b = strconv.AppendInt(b, rid, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, sid, 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, dist, 'g', -1, 64)
	return append(b, '\n')
}

func readInput(path string, covtype bool) ([]knnjoin.Object, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if covtype {
		return dataset.ReadCovType(f, 0)
	}
	return dataset.ReadCSV(f)
}
