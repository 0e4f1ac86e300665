// Command bench is the repository's benchmark harness: four deployment
// workloads, six end-to-end metrics each taken from several repetitions
// inside the run, and a traced pass that attributes the time to layers.
// BENCHMARK.json at the root names bench/run.sh, which builds the
// programs under test and this harness and then runs
//
//	bench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// from the root of the checkout. The harness imports only the standard
// library and drives cmd/datagen, cmd/knnjoin, cmd/knnindex and
// cmd/knnserve as processes — bytes in, bytes out — so refactors of
// internal APIs cannot move the gated numbers; bench/probe, used by the
// traced pass alone, is the part that imports the repository's packages.
//
// Other subcommands: `bench compare A.json B.json`, `bench noise`,
// `bench manifest`. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// buildDir is the one git-ignored directory everything lives in: the
// binaries and Go's caches (kept between runs), and a scratch directory
// per run (removed when the run ends).
const buildDir = ".bench_build"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "noise":
			os.Exit(noiseMain(os.Args[2:]))
		case "manifest":
			os.Exit(manifestMain())
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs and the request stream")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured phases; fewer repetitions fit a shorter run")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	out := fs.String("out", "", "also write result.json (and, traced, the span files) into this directory")
	smoke := fs.Bool("smoke", false, "tiny inputs and two repetitions: the self-test's scale")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; BENCHMARK.json lists them\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if _, err := os.Stat(filepath.Join(root, buildDir, "bin", "knnjoin")); err != nil {
		fmt.Fprintf(os.Stderr, "bench: no built programs under %s; start the benchmark with `bash bench/run.sh` from the root of the checkout\n", buildDir)
		return 2
	}

	dir := filepath.Join(root, buildDir, "runs", fmt.Sprintf("%s-%d-%d", w.Name, *seed, os.Getpid()))
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cpus, err := affinityOf(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	r := &runner{
		root: root, dir: dir, w: w, sc: fullScale, seed: *seed, seconds: *seconds,
		kids: newChildren(append(os.Environ(), "TMPDIR="+tmp), dir),
		reps: map[string][]float64{}, allCPUs: cpus, oneCPU: cpus.last(),
	}
	if *smoke {
		r.sc = smokeScale
	}
	declared := endToEnd
	if *trace == 1 {
		r.tr, declared = newTracer(), perLayer
	}
	cleanup := func() {
		r.kids.killAll()
		os.RemoveAll(dir)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cleanup()
		os.Exit(130)
	}()
	defer cleanup()

	measured, err := r.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range declared {
		v := measured[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: %s is %v\n", m.Name, v)
			return 1
		}
		line.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
		delete(measured, m.Name)
	}
	for name := range measured {
		fmt.Fprintf(os.Stderr, "bench: measured %s, which no table declares\n", name)
		return 1
	}
	if r.tr != nil {
		if err := r.tr.write(r.traceDir()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeOut(*out, r, line, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d join processes, %d timed /knn requests, %d checks, %d failed (%s)\n",
		w.Name, *seed, len(r.reps["join_wall_s"]), r.samples, r.attempted, r.failed, strings.Join(r.laps, ", "))
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(raw))
	if r.failed > 0 {
		return 1
	}
	return 0
}
