// Command knnbench regenerates the paper's evaluation: every table and
// figure of §6, plus the repository's extension experiments, as aligned
// text tables.
//
// Usage:
//
//	knnbench                      # run everything at the default scale
//	knnbench -exp fig8,fig11      # selected experiments
//	knnbench -scale 0.1 -nodes 8  # smaller/faster reproduction
//	knnbench -list                # list experiment names
//
// The default scale (1.0) uses Forest×10 = 200,000 objects and takes on
// the order of tens of minutes for the full sweep on a multicore machine;
// -scale 0.1 finishes in a couple of minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"knnjoin/internal/experiments"
	"knnjoin/internal/obs"
	"knnjoin/internal/stats"
)

var order = []string{
	"table2", "table3", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "ablation", "grouping-cost",
	"zknn", "baselines", "topk", "range", "skew",
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "knnbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("knnbench", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "dataset scale (1.0 = Forest×10 with 200K objects)")
	nodes := fs.Int("nodes", 16, "default simulated cluster nodes")
	k := fs.Int("k", 10, "default k")
	seed := fs.Int64("seed", 1, "seed for data and algorithms")
	expFlag := fs.String("exp", "all", "comma-separated experiments (see -list)")
	list := fs.Bool("list", false, "list experiment names and exit")
	spillDir := fs.String("spill-dir", "", "out-of-core backend: run every experiment with DFS chunks and shuffle runs under this directory")
	memLimitFlag := fs.String("mem-limit", "", "resident shuffle budget per run, e.g. 256M (spills to -spill-dir or a temp dir)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
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
				fmt.Fprintln(os.Stderr, "knnbench: heap profile:", err)
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
	if *list {
		for _, name := range order {
			fmt.Println(name)
		}
		return nil
	}

	selected := make(map[string]bool)
	if *expFlag == "all" || *expFlag == "" {
		for _, n := range order {
			selected[n] = true
		}
	} else {
		for _, n := range strings.Split(*expFlag, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if !contains(order, n) {
				return fmt.Errorf("unknown experiment %q (see -list)", n)
			}
			selected[n] = true
		}
	}

	r := experiments.NewRunner(experiments.Config{
		Scale: *scale, Seed: *seed, Nodes: *nodes, K: *k,
		SpillDir: *spillDir, MemLimit: memLimit,
	})
	start := time.Now()
	fmt.Printf("knnbench: scale=%.3g nodes=%d k=%d seed=%d (Forest×10 = %d objects)\n\n",
		*scale, r.Config().Nodes, r.Config().K, *seed, len(r.ForestX(10)))

	// fig6 and fig7 come from one shared sweep; compute lazily, once.
	var fig6, fig7 *experiments.ExpResult
	sweep := func() error {
		if fig6 != nil {
			return nil
		}
		var err error
		fig6, fig7, err = r.Fig6and7()
		return err
	}

	for _, name := range order {
		if !selected[name] {
			continue
		}
		var res *experiments.ExpResult
		var err error
		switch name {
		case "table2":
			res, err = r.Table2()
		case "table3":
			res, err = r.Table3()
		case "fig6":
			if err = sweep(); err == nil {
				res = fig6
			}
		case "fig7":
			if err = sweep(); err == nil {
				res = fig7
			}
		case "fig8":
			res, err = r.Fig8()
		case "fig9":
			res, err = r.Fig9()
		case "fig10":
			res, err = r.Fig10()
		case "fig11":
			res, err = r.Fig11()
		case "fig12":
			res, err = r.Fig12()
		case "ablation":
			res, err = r.Ablation()
		case "grouping-cost":
			res, err = r.GroupingCost()
		case "zknn":
			res, err = r.ZKNN()
		case "baselines":
			res, err = r.Baselines()
		case "topk":
			res, err = r.TopKPairs()
		case "range":
			res, err = r.RangeJoinExp()
		case "skew":
			res, err = r.Skew()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
	}
	fmt.Printf("knnbench: done in %v\n", time.Since(start).Round(time.Second))
	return nil
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
