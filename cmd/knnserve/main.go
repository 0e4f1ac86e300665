// Command knnserve is the concurrent kNN query service over the pivot
// index (internal/serve): load an index built by `knnindex build` (or
// build one from a CSV dataset at startup) and answer kNN, range and
// batched kNN queries over HTTP/JSON.
//
// Usage:
//
//	knnserve -index pts.idx -addr :8080
//	knnserve -data pts.csv -pivots 200 -addr :8080
//	knnserve -index pts.idx -workers 8 -cache 4096
//	knnserve -index pts.idx -shards 4 -replicas 2
//
// With -shards N the process becomes the router of a sharded cluster:
// it re-executes itself N×R times, each child serving a subset of the
// index's Voronoi cells, and answers the same endpoints with responses
// byte-identical to the single-process server (see internal/shard).
//
// Endpoints:
//
//	POST /knn        {"point":[...],"k":5}
//	POST /range      {"point":[...],"radius":10}
//	POST /knn/batch  {"queries":[{"point":[...],"k":5}, ...]}
//	POST /reload     {"path":"new.idx"}   (empty path re-reads -index)
//	GET  /stats      counters, latency quantiles, cache hit rate
//	GET  /metrics    Prometheus text exposition
//	GET  /healthz    liveness
//
// -pprof exposes net/http/pprof under /debug/pprof; -trace DIR writes
// request spans as JSONL for cmd/knntrace.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"knnjoin/internal/dataset"
	"knnjoin/internal/obs"
	"knnjoin/internal/pivot"
	"knnjoin/internal/serve"
	"knnjoin/internal/shard"
	"knnjoin/internal/vector"
	"knnjoin/internal/vindex"
)

func main() {
	// Children of -shards mode re-enter this binary; this turns them
	// into shard replicas and never returns for them.
	shard.RunShardIfSpawned()
	if err := run(context.Background(), os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "knnserve:", err)
		os.Exit(1)
	}
}

// run parses flags, builds the server, and serves until SIGINT/SIGTERM
// or parent cancellation. ready, when non-nil, receives the bound
// address once listening (used by tests to serve on ":0").
func run(parent context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("knnserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	idxPath := fs.String("index", "", "index file built by `knnindex build`")
	data := fs.String("data", "", "CSV dataset to index at startup (alternative to -index)")
	numPivots := fs.Int("pivots", 0, "with -data: pivot count (0 = auto ≈ 2√n)")
	metricName := fs.String("metric", "l2", "with -data: distance metric: l2 | l1 | linf")
	pivotStrat := fs.String("pivot-strategy", "random", "with -data: pivot selection: random | farthest | kmeans")
	boundK := fs.Int("boundk", 16, "with -data: per-partition kNN summary size")
	seed := fs.Int64("seed", 1, "with -data: random seed")
	workers := fs.Int("workers", 0, "concurrent query execution bound (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", 1024, "LRU result cache entries (0 disables)")
	maxBatch := fs.Int("max-batch", 1024, "maximum queries per /knn/batch request")
	shards := fs.Int("shards", 0, "serve as a sharded cluster of this many shard processes (0 = single process)")
	replicas := fs.Int("replicas", 1, "with -shards: replica processes per shard")
	traceDir := fs.String("trace", "", "write request/scan spans as JSONL under this directory (render with knntrace)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*idxPath == "") == (*data == "") {
		return fmt.Errorf("need exactly one of -index or -data")
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be non-negative, got %d", *shards)
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1, got %d", *replicas)
	}

	var ix *vindex.Index
	source := ""
	switch {
	case *idxPath != "" && *shards > 0:
		// StartCluster reads the index's pivots and summary; each shard
		// replica decodes only its own cells.
	case *idxPath != "":
		var err error
		if ix, err = vindex.LoadFile(*idxPath); err != nil {
			return err
		}
		source = *idxPath
	default:
		metric, err := vector.ParseMetric(*metricName)
		if err != nil {
			return err
		}
		ps, err := pivot.ParseStrategy(*pivotStrat)
		if err != nil {
			return err
		}
		f, err := os.Open(*data)
		if err != nil {
			return err
		}
		objs, err := dataset.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		ix, err = vindex.Build(objs, vindex.Options{
			Metric: metric, NumPivots: *numPivots, PivotStrategy: ps, Seed: *seed, BoundK: *boundK,
		})
		if err != nil {
			return err
		}
	}

	// At the flag layer an explicit 0 means "no cache" (the library's
	// zero value means "default size") — translate before constructing.
	if *cacheSize == 0 {
		*cacheSize = -1
	}
	var tracer *obs.Tracer
	if *traceDir != "" {
		var err error
		if tracer, err = obs.NewTracer(*traceDir, "serve"); err != nil {
			return err
		}
		defer tracer.Close()
	}
	cfg := serve.Config{Workers: *workers, CacheSize: *cacheSize, MaxBatch: *maxBatch, Tracer: tracer}

	var s *serve.Server
	if *shards > 0 {
		// The shard replicas load their cell subsets from a file; an
		// index built from -data is persisted first so they can.
		path := *idxPath
		if path == "" {
			f, err := os.CreateTemp("", "knnserve-*.idx")
			if err != nil {
				return err
			}
			if err := ix.Save(f); err != nil {
				f.Close()
				os.Remove(f.Name())
				return err
			}
			if err := f.Close(); err != nil {
				os.Remove(f.Name())
				return err
			}
			path = f.Name()
			defer os.Remove(path)
		}
		cluster, err := shard.StartCluster(shard.ClusterConfig{
			IndexPath: path, Shards: *shards, Replicas: *replicas,
			TraceDir: *traceDir, Pprof: *pprofOn,
		})
		if err != nil {
			return err
		}
		defer cluster.Close()
		if ix == nil {
			ix = cluster.Meta()
		}
		// The router's shard_* families join the server's registry so
		// one /metrics page covers routing and serving.
		cfg.Metrics = obs.NewRegistry()
		router := shard.NewRouter(cluster, shard.RouterConfig{
			ProbeInterval: time.Second, Tracer: tracer, Metrics: cfg.Metrics,
		})
		defer router.Close()
		cfg.Loader = router.Loader
		s = serve.NewBackend(router, path, cfg)
		fmt.Fprintf(os.Stderr, "knnserve: routing over %d shards × %d replicas\n", *shards, *replicas)
	} else {
		s = serve.New(ix, source, cfg)
	}
	handler := s.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		obs.RegisterPprof(mux)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := obs.NewServer(handler)

	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "knnserve: serving %d objects in %d partitions (dim %d) on %s\n",
		ix.Len(), ix.NumPartitions(), ix.Dim(), ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
