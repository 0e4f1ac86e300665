// Command distbench runs the distance-path micro-benchmarks — reducer
// value-group decode and the PGBJ-reducer-shaped join — through both the
// legacy per-Object path and the columnar Block path, plus the kernel
// tier matrix (scalar / block / quantized across dimensionalities)
// through the query-batched kernels — and writes the results as JSON
// (committed as BENCH_dist.json at the repository root), so the distance
// path's performance trajectory is tracked across changes next to the
// shuffle's. The workloads are the same internal/benchjobs functions
// bench_test.go measures with `go test -bench`; every path and every
// kernel tier runs identical candidate sets and their outputs are
// cross-checked (down to the distance bits) before timing.
//
// Usage:
//
//	distbench                     # both suites, JSON to stdout
//	distbench -out BENCH_dist.json
//	distbench -suite kernels      # only the kernel tier matrix
//	distbench -suite kernels -smoke  # cross-check outputs only, no timing
//	distbench -queries 64         # override the per-suite query defaults (dist 64, kernels 512)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"knnjoin/internal/benchjobs"
	"knnjoin/internal/obs"
	"knnjoin/internal/vector"
)

// Path is one side's measurement: the scalar (per-Object) or block
// (columnar) implementation of the same workload.
type Path struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Result is one workload's before/after pair.
type Result struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	Dim  int    `json:"dim"`
	// Scalar is the per-Object decode path (one DecodeTagged and one
	// Point allocation per record, Metric.Dist per candidate) — the
	// "before" series.
	Scalar Path `json:"scalar"`
	// Block is the columnar path (DecodeBlock once per group, fused
	// squared-distance kernels, emit-time sqrt) — the "after" series.
	Block      Path    `json:"block"`
	Speedup    float64 `json:"speedup"`
	AllocRatio float64 `json:"alloc_ratio"`
}

// KernelRow is one (n, dim) cell of the kernel tier matrix: the
// PGBJ-reducer-shaped join measured through the query-batched kernels at
// every tier, with the headline speedups quoted against the exact block
// tier. Every tier's output is cross-checked against the per-Object
// scalar join before timing — bit-identical down to the distance bits.
type KernelRow struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	Dim  int    `json:"dim"`
	// Tiers maps kernel name → measurement.
	Tiers map[string]Path `json:"tiers"`
	// SpeedupQuantized is the ns/op ratio vs the block tier.
	SpeedupQuantized float64 `json:"speedup_quantized_vs_block"`
}

// Report is the top-level JSON document.
type Report struct {
	Suite  string `json:"suite"`
	Kernel string `json:"kernel"`
	K      int    `json:"k"`
	// Queries is the dist suite's per-join query count; KernelQueries is
	// the kernels suite's reducer-sized batch (see run's flag handling).
	Queries       int      `json:"queries"`
	KernelQueries int      `json:"kernel_queries,omitempty"`
	Results       []Result `json:"results,omitempty"`
	// Kernels is the tier matrix (suite "kernels" or "all").
	Kernels []KernelRow `json:"kernels,omitempty"`
}

func measure(fn func() error) (Path, error) {
	var err error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if e := fn(); e != nil {
				err = e
				b.FailNow()
			}
		}
	})
	if err != nil {
		return Path{}, err
	}
	return Path{
		NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
		AllocsPerOp: br.AllocsPerOp(),
		BytesPerOp:  br.AllocedBytesPerOp(),
	}, nil
}

func ratio(scalar, block float64) float64 {
	if block == 0 {
		return 0
	}
	return scalar / block
}

func run(args []string) error {
	fs := flag.NewFlagSet("distbench", flag.ContinueOnError)
	out := fs.String("out", "", "output file (default stdout)")
	k := fs.Int("k", 10, "neighbors per query in the join workloads")
	queries := fs.Int("queries", 0, "queries per join measurement (0 = suite default: 64 for dist, 512 for kernels)")
	sizes := fs.String("sizes", "10000,100000", "comma-separated group sizes n")
	suite := fs.String("suite", "all", "which suite to run: dist | kernels | all")
	smoke := fs.Bool("smoke", false, "cross-check outputs only, skip timing (CI equality gate)")
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
				fmt.Fprintln(os.Stderr, "distbench: heap profile:", err)
			}
		}()
	}
	if *k < 1 || *queries < 0 {
		return fmt.Errorf("-k must be at least 1 and -queries non-negative")
	}
	// The kernels suite times the pgbj-reduce task shape: decode + tier
	// build once, then the whole R partition of queries against the
	// block. Its default batch is therefore reducer-sized (512) rather
	// than the dist suite's 64, so one-time build costs amortize the way
	// they do in a real reduce task.
	distQ, kernQ := *queries, *queries
	if *queries == 0 {
		distQ, kernQ = 64, 512
	}
	if *suite != "dist" && *suite != "kernels" && *suite != "all" {
		return fmt.Errorf("-suite must be dist, kernels, or all, got %q", *suite)
	}
	var ns []int
	for _, f := range strings.Split(*sizes, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 1 {
			return fmt.Errorf("-sizes entries must be positive integers, got %q", f)
		}
		ns = append(ns, v)
	}
	if len(ns) == 0 {
		return fmt.Errorf("-sizes is empty")
	}

	report := Report{Suite: "distance-path", Kernel: "columnar-block", K: *k, Queries: distQ}
	if *suite == "kernels" {
		report.Suite = "kernels"
	}
	if *suite != "dist" {
		report.KernelQueries = kernQ
	}
	dims := []int{2, 8, 32}
	tiers := []vector.Kernel{vector.KernelScalar, vector.KernelBlock, vector.KernelQuantized}
	for _, n := range ns {
		for _, dim := range dims {
			recs := benchjobs.DistInput(n, dim, 1)
			qs := benchjobs.DistQueries(distQ, dim, 2)
			theta, err := benchjobs.DistTheta(recs, benchjobs.DistWindowFrac)
			if err != nil {
				return err
			}

			// Cross-check every path before timing anything: the block
			// path and every kernel tier must reproduce the scalar join
			// bit-for-bit (ids, order, and distance bits — see
			// benchjobs.checksum). This check IS the -smoke mode.
			want, err := benchjobs.JoinScalar(recs, qs, *k, theta)
			if err != nil {
				return err
			}
			got, err := benchjobs.JoinBlock(recs, qs, *k, theta)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("join paths disagree at n=%d dim=%d: scalar %d, block %d", n, dim, want, got)
			}
			for _, kern := range tiers {
				got, err := benchjobs.JoinKernelBatch(recs, qs, *k, theta, kern)
				if err != nil {
					return err
				}
				if got != want {
					return fmt.Errorf("kernel %v join differs from float64 baseline at n=%d dim=%d: %d, want %d",
						kern, n, dim, got, want)
				}
			}
			if *smoke {
				continue
			}

			if *suite != "kernels" {
				dec, err := pair(fmt.Sprintf("decode/d=%d/n=%d", dim, n), n, dim,
					func() error { _, err := benchjobs.DecodeScalar(recs); return err },
					func() error { _, err := benchjobs.DecodeBlock(recs); return err })
				if err != nil {
					return err
				}
				join, err := pair(fmt.Sprintf("pgbj-reduce/d=%d/n=%d", dim, n), n, dim,
					func() error { _, err := benchjobs.JoinScalar(recs, qs, *k, theta); return err },
					func() error { _, err := benchjobs.JoinBlock(recs, qs, *k, theta); return err })
				if err != nil {
					return err
				}
				report.Results = append(report.Results, dec, join)
			}
			if *suite != "dist" {
				qsK := qs
				if kernQ != distQ {
					qsK = benchjobs.DistQueries(kernQ, dim, 2)
				}
				row := KernelRow{
					Name:  fmt.Sprintf("pgbj-reduce/d=%d/n=%d", dim, n),
					N:     n,
					Dim:   dim,
					Tiers: make(map[string]Path, len(tiers)),
				}
				for _, kern := range tiers {
					kern := kern
					m, err := measure(func() error {
						_, err := benchjobs.JoinKernelBatch(recs, qsK, *k, theta, kern)
						return err
					})
					if err != nil {
						return fmt.Errorf("%s/%v: %w", row.Name, kern, err)
					}
					row.Tiers[kern.String()] = m
				}
				blockNs := row.Tiers[vector.KernelBlock.String()].NsPerOp
				row.SpeedupQuantized = ratio(blockNs, row.Tiers[vector.KernelQuantized.String()].NsPerOp)
				report.Kernels = append(report.Kernels, row)
			}
		}
	}
	if *smoke {
		fmt.Fprintf(os.Stderr, "distbench: smoke ok — all kernel tiers match the float64 baseline (%d sizes × %d dims)\n",
			len(ns), len(dims))
		return nil
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// pair measures the scalar and block implementations of one workload.
func pair(name string, n, dim int, scalar, block func() error) (Result, error) {
	s, err := measure(scalar)
	if err != nil {
		return Result{}, fmt.Errorf("%s/scalar: %w", name, err)
	}
	b, err := measure(block)
	if err != nil {
		return Result{}, fmt.Errorf("%s/block: %w", name, err)
	}
	return Result{
		Name: name, N: n, Dim: dim,
		Scalar:     s,
		Block:      b,
		Speedup:    ratio(s.NsPerOp, b.NsPerOp),
		AllocRatio: ratio(float64(s.AllocsPerOp), float64(b.AllocsPerOp)),
	}, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "distbench:", err)
		os.Exit(1)
	}
}
