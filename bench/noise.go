package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// noiseRuns is the protocol's set size: the driver that gates later
// changes takes ten runs a set too.
const noiseRuns = 10

// noiseMain is the noise protocol: what the same commit measures against
// itself. Two sets of ten runs per workload, interleaved in time (A, B, A, B,
// ...) so a slow quarter of an hour hits both, each run on another seed;
// then runs of one seed on one workload, which separates the host's share
// of the spread from the generator's; then one traced run per workload
// and set on a shared seed, whose exact counts must agree. It prints the
// table README.md carries and from which the bounds in BENCHMARK.json are
// derived, and leaves setA.json, setB.json and sameseed.json in --out for
// `bench compare`.
func noiseMain(args []string) int {
	fs := flag.NewFlagSet("bench noise", flag.ContinueOnError)
	out := fs.String("out", filepath.Join(buildDir, "noise"), "directory for setA.json, setB.json, sameseed.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench noise:", err)
		return 2
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var prov provenance // the last run's own: every run of the protocol measures one checkout on one host
	sets := []*resultFile{{Schema: schemaName}, {Schema: schemaName}}
	files := []string{filepath.Join(*out, "setA.json"), filepath.Join(*out, "setB.json")}
	one := func(name string, seed int64, trace int) (runEntry, error) {
		dir := filepath.Join(*out, "run")
		argv := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(runSeconds), "--trace", fmt.Sprint(trace), "--out", dir}
		cmd := exec.CommandContext(ctx, os.Args[0], argv...)
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) } // the run stops its own children
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return runEntry{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
		}
		f, err := readResults(filepath.Join(dir, "result.json"))
		if err != nil {
			return runEntry{}, err
		}
		prov = f.Provenance
		return f.Runs[0], nil
	}
	add := func(set int, name string, seed int64, trace int) bool {
		run, err := one(name, seed, trace)
		if err == nil {
			sets[set].Runs, sets[set].Provenance = append(sets[set].Runs, run), prov
			err = writeJSON(files[set], sets[set])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench noise:", err)
		}
		return err == nil
	}
	for i := 0; i < noiseRuns; i++ {
		for set := range sets {
			for _, name := range names {
				if !add(set, name, int64(100*set+i+1), 0) {
					return 1
				}
			}
		}
	}
	fmt.Printf("Two interleaved sets of %d runs, every run another seed (%s, %d vCPU, %s):\n\n", noiseRuns, prov.CPU, prov.NProc, prov.Go)
	noiseTable(names, sets[0], sets[1])

	// OSM is the workload whose generator moves most with the seed.
	const same = "osm2d_mem"
	sameSet := &resultFile{Schema: schemaName}
	for i := 0; i < noiseRuns; i++ {
		run, err := one(same, 1, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench noise:", err)
			return 1
		}
		sameSet.Runs, sameSet.Provenance = append(sameSet.Runs, run), prov
	}
	if err := writeJSON(filepath.Join(*out, "sameseed.json"), sameSet); err != nil {
		fmt.Fprintln(os.Stderr, "bench noise:", err)
		return 1
	}
	fmt.Printf("\n%d runs of seed 1 on %s — the host's share of the spread:\n\n", noiseRuns, same)
	fmt.Println("| metric | median | IQR÷median |")
	fmt.Println("|---|---|---|")
	for _, m := range endToEnd {
		v := sameSet.values(same, m.Name)
		fmt.Printf("| `%s` | %.4g %s | %.3f |\n", m.Name, median(v), m.Unit, spread(v))
	}

	fmt.Printf("\nTraced pass, seed 1, once per set — exact counts must agree:\n\n")
	ok := true
	for _, name := range names {
		if !add(0, name, 1, 1) || !add(1, name, 1, 1) {
			return 1
		}
		a := sets[0].Runs[len(sets[0].Runs)-1].Result.Metrics
		b := sets[1].Runs[len(sets[1].Runs)-1].Result.Metrics
		for _, m := range perLayer {
			if exactCount(m) && a[m.Name].Value != b[m.Name].Value {
				ok = false
				fmt.Printf("%s: %s differs between two runs of one seed: %v, %v\n", name, m.Name, a[m.Name].Value, b[m.Name].Value)
			}
		}
	}
	layerTable(names, sets[0])
	if !ok {
		return 1
	}
	fmt.Println("\nEvery pgbj.* count and grouping.exact_replication agreed between the two runs of each workload.")
	return 0
}

// exactCount says whether a per-layer metric is a count the program makes
// that must repeat exactly for one seed.
func exactCount(m metric) bool {
	switch m.Name {
	case "grouping.exact_replication", "pgbj.dist_comps", "pgbj.selectivity_permille", "pgbj.shuffle_mb",
		"pgbj.shuffle_records", "pgbj.avg_replication", "pgbj.reduce_skew", "pgbj.output_pairs":
		return true
	}
	return false
}

func noiseTable(names []string, a, b *resultFile) {
	fmt.Println("| workload | metric | median A | IQR÷median A | median B | IQR÷median B | B÷A | bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, name := range names {
		for _, m := range endToEnd {
			va, vb := a.values(name, m.Name), b.values(name, m.Name)
			ratio := 0.0
			if median(va) != 0 {
				ratio = median(vb) / median(va)
			}
			fmt.Printf("| %s | `%s` | %.4g %s | %.3f | %.4g %s | %.3f | %.3f | %.2f |\n", name, m.Name,
				median(va), m.Unit, spread(va), median(vb), m.Unit, spread(vb), ratio, m.Bound)
		}
	}
}

// layerTable prints the last traced run of each workload in set.
func layerTable(names []string, set *resultFile) {
	last := map[string]map[string]value{}
	for _, run := range set.Runs {
		if run.Trace == 1 {
			last[run.Workload] = run.Result.Metrics
		}
	}
	fmt.Println("| metric | unit | " + strings.Join(names, " | ") + " |")
	fmt.Println("|---|---|" + strings.Repeat("---|", len(names)))
	for _, m := range perLayer {
		row := fmt.Sprintf("| `%s` | %s |", m.Name, m.Unit)
		for _, name := range names {
			row += fmt.Sprintf(" %.4g |", last[name][m.Name].Value)
		}
		fmt.Println(row)
	}
}
