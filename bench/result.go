package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// resultFile is the one schema results are kept in: `--out` writes a file
// with one run, `bench noise` one with a set of runs, BASELINE.json is
// such a set, and `bench compare` reads any two.
type resultFile struct {
	Schema     string     `json:"schema"`
	Provenance provenance `json:"provenance"`
	Runs       []runEntry `json:"runs"`
}

const schemaName = "knnjoin-bench/1"

// provenance says what was measured on what.
type provenance struct {
	GitRev     string `json:"git_rev"`
	Dirty      bool   `json:"dirty"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	ServerCPUs int    `json:"server_cpus"` // CPUs knnserve and its shards were confined to; their GOMAXPROCS
	CPU        string `json:"cpu_model"`
	Time       string `json:"time"`
}

// runEntry is one run: its parameters, the result line, and every
// repetition behind each end-to-end metric.
type runEntry struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Seconds  float64              `json:"seconds"`
	Trace    int                  `json:"trace"`
	Params   scale                `json:"params"`
	Result   resultLine           `json:"result"`
	Reps     map[string][]float64 `json:"reps,omitempty"`
	Samples  int                  `json:"knn_latency_samples,omitempty"`
}

func gatherProvenance(root string) provenance {
	p := provenance{
		GitRev: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPU: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	// A driver's checkout is not a git repository; a developer's is.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			p.GitRev = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			p.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// writeOut leaves the run's result.json, and the traced pass's span
// files, in dir.
func writeOut(dir string, r *runner, line resultLine, trace int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if r.tr != nil {
		to := filepath.Join(dir, "trace")
		os.RemoveAll(to)
		if err := moveFiles(r.traceDir(), to); err != nil {
			return err
		}
	}
	prov := gatherProvenance(r.root)
	prov.ServerCPUs = r.serverCPUs
	return writeJSON(filepath.Join(dir, "result.json"), resultFile{
		Schema: schemaName, Provenance: prov,
		Runs: []runEntry{{
			Workload: r.w.Name, Seed: r.seed, Seconds: r.seconds, Trace: trace,
			Params: r.sc, Result: line, Reps: r.reps, Samples: r.samples,
		}},
	})
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schemaName {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schemaName)
	}
	return &f, nil
}

// values collects one metric's value from every untraced run of one
// workload.
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range f.Runs {
		if v, ok := run.Result.Metrics[metric]; ok && run.Workload == workload && run.Trace == 0 {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict judges B against A for one end-to-end metric by the rules of
// the choosing-metrics guide: a spread wider than the bound resolves
// nothing unless every run of B beats every run of A.
func verdict(a, b []float64, m metric) (ratio float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	ratio = mb / ma
	worse := ratio - 1
	if m.Better == hi {
		worse = 1 - ratio
	}
	if s := spread(a); s > m.Bound || spread(b) > m.Bound {
		sa, sb := sorted(a), sorted(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if m.Better == hi {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return ratio, "unresolved"
		}
	}
	if worse > m.Bound {
		return ratio, "worse"
	}
	return ratio, "ok"
}

// compareMain prints, per (workload, metric): A's and B's medians and
// spreads, B÷A, the bound, and ok / worse / unresolved. This is the one
// place a timing threshold is applied. Exit 1 if anything is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json   (A is the base of every ratio)")
		return 2
	}
	a, err := readResults(args[0])
	if err == nil {
		var b *resultFile
		if b, err = readResults(args[1]); err == nil {
			return printComparison(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func printComparison(a, b *resultFile) int {
	fmt.Printf("A: %s (%s, %s)\nB: %s (%s, %s)\n", a.Provenance.GitRev, a.Provenance.Go, a.Provenance.CPU,
		b.Provenance.GitRev, b.Provenance.Go, b.Provenance.CPU)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median (n, IQR/med)\tB median (n, IQR/med)\tB/A\tbound\tverdict")
	code := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, v := verdict(va, vb, m)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s (%d, %.3f)\t%.4g %s (%d, %.3f)\t%.3f\t%.2f\t%s\n", w.Name, m.Name,
				median(va), m.Unit, len(va), spread(va), median(vb), m.Unit, len(vb), spread(vb), ratio, m.Bound, v)
		}
	}
	tw.Flush()
	return code
}

// manifest is BENCHMARK.json, generated from the tables in spec.go so
// the file and the harness cannot name different things.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestEntry `json:"workloads"`
	EndToEnd   []metric        `json:"end_to_end"`
	PerLayer   []metric        `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestEntry{w.Name, w.Why})
	}
	return m
}

func manifestMain() int {
	raw, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench manifest:", err)
		return 1
	}
	fmt.Println(string(raw))
	return 0
}
