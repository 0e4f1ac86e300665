// Command knnindex builds, persists, and queries the pivot-based online
// index (internal/vindex): the paper's Voronoi partitioning machinery
// packaged for ad-hoc single queries instead of full joins.
//
// Usage:
//
//	knnindex build -data pts.csv -o pts.idx -pivots 200
//	knnindex query -index pts.idx -point "12.5,3.1" -k 5
//	knnindex range -index pts.idx -point "12.5,3.1" -radius 10
//	knnindex stats -index pts.idx
package main

import (
	"flag"
	"fmt"
	"os"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/pivot"
	"knnjoin/internal/vector"
	"knnjoin/internal/vindex"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "knnindex:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: knnindex <build|query|range|stats> [flags]")
	}
	switch args[0] {
	case "build":
		return runBuild(args[1:])
	case "query":
		return runQuery(args[1:])
	case "range":
		return runRange(args[1:])
	case "stats":
		return runStats(args[1:])
	}
	return fmt.Errorf("unknown subcommand %q (want build, query, range or stats)", args[0])
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("knnindex build", flag.ContinueOnError)
	data := fs.String("data", "", "CSV dataset to index (required)")
	out := fs.String("o", "", "output index file (required)")
	numPivots := fs.Int("pivots", 0, "pivot count (0 = auto ≈ 2√n)")
	metricName := fs.String("metric", "l2", "distance metric: l2 | l1 | linf")
	pivotStrat := fs.String("pivot-strategy", "random", "pivot selection: random | farthest | kmeans")
	boundK := fs.Int("boundk", 16, "per-partition kNN summary size (tight bounds for k ≤ boundk)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" || *out == "" {
		return fmt.Errorf("build needs -data and -o")
	}
	metric, err := vector.ParseMetric(*metricName)
	if err != nil {
		return err
	}
	ps, err := pivot.ParseStrategy(*pivotStrat)
	if err != nil {
		return err
	}
	objs, err := readCSV(*data)
	if err != nil {
		return err
	}
	ix, err := vindex.Build(objs, vindex.Options{
		Metric: metric, NumPivots: *numPivots, PivotStrategy: ps, Seed: *seed, BoundK: *boundK,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ix.Save(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "knnindex: indexed %d objects into %d partitions → %s\n",
		ix.Len(), ix.NumPartitions(), *out)
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("knnindex query", flag.ContinueOnError)
	idxPath := fs.String("index", "", "index file (required)")
	pointStr := fs.String("point", "", "query point, comma-separated (required)")
	k := fs.Int("k", 10, "number of neighbors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ix, q, err := loadIndexAndPoint(*idxPath, *pointStr)
	if err != nil {
		return err
	}
	res, st := ix.KNNWithStats(q, *k)
	for _, c := range res {
		fmt.Printf("%d,%g\n", c.ID, c.Dist)
	}
	fmt.Fprintf(os.Stderr, "knnindex: %d distance computations, %d partitions scanned, %d pruned\n",
		st.DistComputations, st.PartitionsScanned, st.PartitionsPruned)
	return nil
}

func runRange(args []string) error {
	fs := flag.NewFlagSet("knnindex range", flag.ContinueOnError)
	idxPath := fs.String("index", "", "index file (required)")
	pointStr := fs.String("point", "", "query point, comma-separated (required)")
	radius := fs.Float64("radius", 1, "search radius")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *radius < 0 {
		return fmt.Errorf("-radius must be non-negative")
	}
	ix, q, err := loadIndexAndPoint(*idxPath, *pointStr)
	if err != nil {
		return err
	}
	for _, o := range ix.Range(q, *radius) {
		fmt.Printf("%d,%s\n", o.ID, o.Point)
	}
	return nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("knnindex stats", flag.ContinueOnError)
	idxPath := fs.String("index", "", "index file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *idxPath == "" {
		return fmt.Errorf("stats needs -index")
	}
	ix, err := vindex.LoadFile(*idxPath)
	if err != nil {
		return err
	}
	fmt.Printf("objects:    %d\npartitions: %d\n", ix.Len(), ix.NumPartitions())
	return nil
}

func loadIndexAndPoint(idxPath, pointStr string) (*vindex.Index, vector.Point, error) {
	if idxPath == "" || pointStr == "" {
		return nil, nil, fmt.Errorf("need -index and -point")
	}
	ix, err := vindex.LoadFile(idxPath)
	if err != nil {
		return nil, nil, err
	}
	q, err := vector.Parse(pointStr)
	if err != nil {
		return nil, nil, err
	}
	return ix, q, nil
}

func readCSV(path string) ([]codec.Object, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}
