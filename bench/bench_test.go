package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The self-test asserts no wall-clock value: it checks the contract's
// shape, the harness's arithmetic, and — at smoke scale — that every
// workload prints every declared metric and verifies its outputs.

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(wd)
	if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err != nil {
		t.Fatalf("BENCHMARK.json not found beside bench/: %v", err)
	}
	return root
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestManifestMatchesTablesAndContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the harness tables; regenerate it with `bench manifest`")
	}

	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		name(e.Name)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == lo
			for _, o := range m.EndToEnd {
				if o.Bound > e.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, e := range m.PerLayer {
		name(e.Name)
		if e.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", e.Name)
		}
	}
	for _, e := range append(append([]metric(nil), m.EndToEnd...), m.PerLayer...) {
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q", e.Name, e.Unit)
		}
		if e.Better != lo && e.Better != hi {
			t.Errorf("%s: better %q", e.Name, e.Better)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4), as the driver computes spreads.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{Name: "x_s", Better: lo, Bound: 0.10}
	higher := metric{Name: "x_rps", Better: hi, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{70, 130, 100, 85, 115, 60, 140, 100, 90, 110}
	for _, c := range []struct {
		name string
		a, b []float64
		m    metric
		want string
	}{
		{"same", steady, steady, lower, "ok"},
		{"within bound", steady, scaled(1.08), lower, "ok"},
		{"slower", steady, scaled(1.2), lower, "worse"},
		{"faster", steady, scaled(0.5), lower, "ok"},
		{"throughput fell", steady, scaled(0.8), higher, "worse"},
		{"throughput rose", steady, scaled(1.5), higher, "ok"},
		{"too noisy to say", noisy, scaled(1.05), lower, "unresolved"},
		{"noisy, but every run better", noisy, scaled(0.4), lower, "ok"},
	} {
		if _, got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestPhaseSum(t *testing.T) {
	stderr := "PGBJ-rg k=10 wall=1.3s\n  Pivot Selection      7.5ms\n  Data Partitioning    400ms\n  Index Merging        30ms\n  Partition Grouping   2.5ms\n  KNN Join             1.06s\n"
	if got := phaseSum(stderr); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("phaseSum = %v, want 1.5", got)
	}
}

// runBench runs the benchmark's command from the root of the checkout, as
// the driver does, and decodes the result line.
func runBench(t *testing.T, root string, args ...string) resultLine {
	t.Helper()
	cmd := exec.Command("bash", append([]string{"bench/run.sh"}, args...)...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bench %v: %v\n%s", args, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line %q: %v", last, err)
	}
	for name := range res.Metrics {
		if n := strings.Count(last, `"`+name+`":`); n != 1 {
			t.Errorf("%s printed %d times", name, n)
		}
	}
	return res
}

func checkResult(t *testing.T, res resultLine, declared []metric, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(declared) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(declared))
	}
	for _, m := range declared {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s not printed", m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: unit %q, declared %q", m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s is %v", m.Name, v.Value)
		case nonZero && v.Value <= 0:
			t.Errorf("%s is %v; an end-to-end metric is never zero", m.Name, v.Value)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the programs and runs every workload at smoke scale")
	}
	root := repoRoot(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			args := []string{"--smoke", "--workload", w.Name, "--seed", "5", "--seconds", "4"}
			checkResult(t, runBench(t, root, append(args, "--trace", "0")...), endToEnd, true)

			out := t.TempDir()
			first := runBench(t, root, append(args, "--trace", "1", "--out", out)...)
			checkResult(t, first, perLayer, false)
			second := runBench(t, root, append(args, "--trace", "1")...)
			for _, m := range perLayer {
				if exactCount(m) && first.Metrics[m.Name].Value != second.Metrics[m.Name].Value {
					t.Errorf("%s: %v then %v for one seed", m.Name, first.Metrics[m.Name].Value, second.Metrics[m.Name].Value)
				}
			}
			if first.Metrics["pgbj.output_pairs"].Value <= 0 {
				t.Error("the probe's join produced nothing")
			}
			if got := first.Metrics["mapreduce.worker_tasks"].Value > 0; got != (w.Engine == "workers") {
				t.Errorf("mapreduce.worker_tasks = %v on engine %s", first.Metrics["mapreduce.worker_tasks"].Value, w.Engine)
			}
			if got := first.Metrics["mapreduce.spilled_mb"].Value > 0; got != (w.Engine == "spill") {
				t.Errorf("mapreduce.spilled_mb = %v on engine %s", first.Metrics["mapreduce.spilled_mb"].Value, w.Engine)
			}
			if got := first.Metrics["shard.scan_rpcs_per_query"].Value > 0; got != (len(w.ServeFlags) > 0) {
				t.Errorf("shard.scan_rpcs_per_query = %v with serve flags %v", first.Metrics["shard.scan_rpcs_per_query"].Value, w.ServeFlags)
			}

			// The harness's spans and the programs' own open as one
			// directory in cmd/knntrace, and --out carries provenance.
			timeline, err := exec.Command(filepath.Join(root, buildDir, "bin", "knntrace"), filepath.Join(out, "trace")).CombinedOutput()
			if err != nil || !bytes.Contains(timeline, []byte("run "+w.Name)) || !bytes.Contains(timeline, []byte("pgbj.Run")) {
				t.Errorf("knntrace on the run's trace directory: %v\n%s", err, timeline)
			}
			f, err := readResults(filepath.Join(out, "result.json"))
			if err != nil {
				t.Fatal(err)
			}
			if p := f.Provenance; p.Go == "" || p.NProc < 1 || p.GitRev == "" || len(f.Runs) != 1 || f.Runs[0].Seed != 5 {
				t.Errorf("result.json provenance %+v, %d runs", p, len(f.Runs))
			}
		})
	}
	entries, err := os.ReadDir(filepath.Join(root, buildDir, "runs"))
	if err == nil && len(entries) > 0 {
		t.Errorf("%d run directories left behind", len(entries))
	}
}

// In a directory with only the benchmark's own files the command has
// nothing to measure: it must say so and print no result.
func TestBareDirectoryExitsNonZero(t *testing.T) {
	root, bare := repoRoot(t), t.TempDir()
	if err := os.CopyFS(filepath.Join(bare, "bench"), os.DirFS(filepath.Join(root, "bench"))); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = os.WriteFile(filepath.Join(bare, "BENCHMARK.json"), raw, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workloads[0].Name, "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = bare
	out, err := cmd.Output()
	if err == nil {
		t.Error("exit 0 in a directory without the repository")
	}
	if len(bytes.TrimSpace(out)) != 0 {
		t.Errorf("printed %q", out)
	}
}
