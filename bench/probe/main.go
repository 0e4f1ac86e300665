// Command probe is the traced pass's look below the command line: it
// replays one workload's join through the repository's packages —
// dataset.ReadCSV → driver.NewEnv/LoadRS → pgbj.Run → Env.Results — with
// the workload's engine, turns the returned phases and jobs into spans,
// and then times direct, single-threaded calls into each layer below
// pgbj on the same files. It is the only part of the benchmark that
// imports the repository's packages, and nothing it prints carries a
// bound: when an internal API moves, this file moves with it and the
// end-to-end numbers do not.
//
// It prints one JSON object, {"metrics": {...}, "spans": [...]}, on
// standard output; the harness (bench/run.go) merges both into the run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/grouping"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/obs"
	"knnjoin/internal/pgbj"
	"knnjoin/internal/pivot"
	"knnjoin/internal/serve"
	"knnjoin/internal/stats"
	"knnjoin/internal/vector"
	"knnjoin/internal/vindex"
	"knnjoin/internal/voronoi"
)

// The join's fixed options, as cmd/knnjoin defaults them.
const (
	nodes    = 4
	joinSeed = 1
)

type probe struct {
	metrics map[string]float64
	spans   []obs.SpanRecord
	root    string
}

// span times fn under a span named after the call it wraps.
func (p *probe) span(name, parent string, fn func() error) (time.Duration, error) {
	id := fmt.Sprintf("probe-%d", len(p.spans)+1)
	p.spans = append(p.spans, obs.SpanRecord{SpanID: id, Parent: parent, Name: name, Proc: "probe"})
	i := len(p.spans) - 1
	start := time.Now()
	err := fn()
	d := time.Since(start)
	p.spans[i].StartNs, p.spans[i].EndNs = start.UnixNano(), start.Add(d).UnixNano()
	return d, err
}

// child records a span whose times were measured elsewhere (a phase or a
// job of a stats.Report) and returns its id.
func (p *probe) child(name, parent string, start time.Time, d time.Duration) string {
	id := fmt.Sprintf("probe-%d", len(p.spans)+1)
	p.spans = append(p.spans, obs.SpanRecord{
		SpanID: id, Parent: parent, Name: name, Proc: "probe",
		StartNs: start.UnixNano(), EndNs: start.Add(d).UnixNano(),
	})
	return id
}

func main() {
	// The workers engine re-executes this binary as its worker processes.
	mapreduce.RunWorkerIfSpawned()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

func run() error {
	rPath := flag.String("r", "", "CSV of R")
	sPath := flag.String("s", "", "CSV of S (the same file for a self-join)")
	k := flag.Int("k", 10, "neighbours")
	engine := flag.String("engine", "mem", "the workload's engine: mem, spill or workers")
	memLimitFlag := flag.String("mem-limit", "8M", "the spill engine's resident budget")
	scratch := flag.String("scratch", "", "directory for spill files")
	indexPath := flag.String("index", "", "the index file the workload's server runs on")
	queriesPath := flag.String("queries", "", "file of /knn request bodies, one a line")
	flag.Parse()
	if *rPath == "" || *sPath == "" || *scratch == "" || *indexPath == "" || *queriesPath == "" {
		return fmt.Errorf("need -r, -s, -scratch, -index and -queries")
	}
	memLimit, err := stats.ParseBytes(*memLimitFlag)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return err
	}
	p := &probe{metrics: map[string]float64{}}
	p.spans = append(p.spans, obs.SpanRecord{SpanID: "probe-1", Name: "probe " + *engine, Proc: "probe", StartNs: time.Now().UnixNano()})
	p.root = "probe-1"

	var r, s []codec.Object
	d, err := p.span("dataset.ReadCSV", p.root, func() (err error) {
		if r, err = readCSV(*rPath); err != nil {
			return err
		}
		s = r
		if *sPath != *rPath {
			s, err = readCSV(*sPath)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.metrics["dataset.read_csv_s"] = d.Seconds()

	cfg := driver.Config{Nodes: nodes}
	switch *engine {
	case "spill":
		cfg.MemLimit, cfg.SpillDir = memLimit, *scratch
	case "workers":
		cfg.Workers = 2
	}
	opts := pgbj.Options{K: *k, Metric: vector.L2, NumPivots: numPivots(len(r)), Seed: joinSeed}
	rep, wall, err := p.join(cfg, r, s, opts, true)
	if err != nil {
		return err
	}
	if *engine != "mem" {
		// The same join on the in-process engine: the difference is what
		// the workload's engine costs.
		_, plain, err := p.join(driver.Config{Nodes: nodes}, r, s, opts, false)
		if err != nil {
			return err
		}
		p.metrics["mapreduce.engine_overhead_s"] = (wall - plain).Seconds()
	}
	for _, j := range rep.Jobs {
		p.metrics["mapreduce.worker_tasks"] += float64(j.WorkerTasks)
		p.metrics["mapreduce.reexecuted_attempts"] += float64(j.ReexecutedAttempts)
	}

	shuffleCfg := driver.Config{Nodes: nodes}
	if *engine == "spill" {
		shuffleCfg = cfg
	}
	groupRows, err := p.layers(r, s, opts, shuffleCfg)
	if err != nil {
		return err
	}
	if *engine == "spill" {
		if err := p.disk(s, filepath.Join(*scratch, "dfs-probe")); err != nil {
			return err
		}
	}
	p.kernels(r, s, groupRows, *k)
	if err := p.index(s, *indexPath, *queriesPath); err != nil {
		return err
	}
	p.spans[0].EndNs = time.Now().UnixNano()
	return json.NewEncoder(os.Stdout).Encode(map[string]any{"metrics": p.metrics, "spans": p.spans})
}

func readCSV(path string) ([]codec.Object, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}

// numPivots is knnjoin.Options' default: ≈ 2√|R|, within [nodes, |R|].
func numPivots(rSize int) int {
	n := int(2 * math.Sqrt(float64(rSize)))
	if n < nodes {
		n = nodes
	}
	if n > rSize {
		n = rSize
	}
	return n
}

var phaseMetric = map[string]string{
	"Pivot Selection":    "pgbj.phase_pivot_s",
	"Data Partitioning":  "pgbj.phase_partition_s",
	"Index Merging":      "pgbj.phase_merge_s",
	"Partition Grouping": "pgbj.phase_grouping_s",
	"KNN Join":           "pgbj.phase_join_s",
}

// join replays what knnjoin.Join does for PGBJ on one engine. With
// record set it files the run under the pgbj.* and driver.* metrics and
// turns the report's phases and jobs into child spans.
func (p *probe) join(cfg driver.Config, r, s []codec.Object, opts pgbj.Options, record bool) (*stats.Report, time.Duration, error) {
	env, err := driver.NewEnv(cfg)
	if err != nil {
		return nil, 0, err
	}
	defer env.Close()
	load, err := p.span("driver.LoadRS", p.root, func() error { return env.LoadRS(r, s) })
	if err != nil {
		return nil, 0, err
	}
	var rep *stats.Report
	wall, err := p.span("pgbj.Run", p.root, func() (err error) {
		rep, err = pgbj.Run(env.Cluster, driver.RFile, driver.SFile, driver.OutFile, opts)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	runSpan, start := p.spans[len(p.spans)-1].SpanID, time.Unix(0, p.spans[len(p.spans)-1].StartNs)
	results, err := p.span("driver.Results", p.root, func() error {
		res, err := env.Results()
		if err == nil && len(res) != len(r) {
			err = fmt.Errorf("%d results for %d objects of R", len(res), len(r))
		}
		return err
	})
	if err != nil || !record {
		return rep, wall, err
	}

	m := p.metrics
	m["driver.load_rs_s"], m["driver.results_s"], m["pgbj.run_s"] = load.Seconds(), results.Seconds(), wall.Seconds()
	// pgbj.Run's phases run back to back; lay them out from its start.
	at, jobs := start, map[string]stats.JobStat{}
	for _, j := range rep.Jobs {
		jobs[j.Name] = j
	}
	for _, ph := range rep.Phases {
		m[phaseMetric[ph.Name]] = ph.Wall.Seconds()
		id := p.child(ph.Name, runSpan, at, ph.Wall)
		job, ok := jobs[map[string]string{"Data Partitioning": "pgbj-partition", "KNN Join": "pgbj-join"}[ph.Name]]
		if ok {
			p.child(job.Name+" map", id, at, job.MapWall)
			p.child(job.Name+" reduce", id, at.Add(job.MapWall), job.ReduceWall)
		}
		at = at.Add(ph.Wall)
	}
	m["pgbj.phase_coverage"] = rep.TotalWall().Seconds() / wall.Seconds()
	m["pgbj.join_map_s"], m["pgbj.join_reduce_s"] = jobs["pgbj-join"].MapWall.Seconds(), jobs["pgbj-join"].ReduceWall.Seconds()
	m["pgbj.dist_comps"] = float64(rep.Pairs)
	m["pgbj.selectivity_permille"] = rep.Selectivity() * 1000
	m["pgbj.shuffle_mb"] = float64(rep.ShuffleBytes) / 1e6
	m["pgbj.shuffle_records"] = float64(rep.ShuffleRecords)
	m["pgbj.avg_replication"] = rep.AvgReplication()
	m["pgbj.reduce_skew"] = rep.JoinSkew
	m["pgbj.output_pairs"] = float64(rep.OutputPairs)
	return rep, wall, nil
}

// layers calls what pgbj.Run calls, one layer at a time on one thread:
// pivot selection, Voronoi assignment of R ∪ S, the summary tables,
// grouping, and a shuffle-only job over the routed records. It returns
// the size of the largest reduce group.
func (p *probe) layers(r, s []codec.Object, opts pgbj.Options, shuffleCfg driver.Config) (int, error) {
	m := p.metrics
	var pivots []vector.Point
	var comps int64
	d, err := p.span("pivot.Select", p.root, func() (err error) {
		pivots, err = pivot.Select(opts.PivotStrategy, r, opts.NumPivots, pivot.Options{Metric: opts.Metric, Seed: opts.Seed, DistCount: &comps})
		return err
	})
	if err != nil {
		return 0, err
	}
	m["pivot.select_s"], m["pivot.dist_comps"] = d.Seconds(), float64(comps)

	pp := voronoi.NewPartitioner(pivots, opts.Metric)
	tagged := make([]codec.Tagged, 0, len(r)+len(s))
	comps = 0
	d, _ = p.span("voronoi.Partitioner.Assign", p.root, func() error {
		for _, set := range []struct {
			objs []codec.Object
			src  codec.Source
		}{{r, codec.FromR}, {s, codec.FromS}} {
			for _, o := range set.objs {
				part, dist := pp.Assign(o.Point, &comps)
				tagged = append(tagged, codec.Tagged{Object: o, Src: set.src, Partition: int32(part), PivotDist: dist})
			}
		}
		return nil
	})
	m["voronoi.assign_ns_per_obj"] = float64(d.Nanoseconds()) / float64(len(tagged))
	m["voronoi.assign_dist_comps_per_obj"] = float64(comps) / float64(len(tagged))

	var sum *voronoi.Summary
	d, _ = p.span("voronoi.SummaryBuilder", p.root, func() error {
		// Two builders merged, as the driver merges one per split.
		a, b := voronoi.NewSummaryBuilder(pp.NumPartitions(), opts.K), voronoi.NewSummaryBuilder(pp.NumPartitions(), opts.K)
		for i, t := range tagged {
			if i%2 == 0 {
				a.Add(t)
			} else {
				b.Add(t)
			}
		}
		a.Merge(b)
		sum = a.Finalize()
		return nil
	})
	m["voronoi.summary_s"] = d.Seconds()

	var groups *grouping.Result
	var groupLBs [][]float64
	d, err = p.span("grouping.Geometric", p.root, func() (err error) {
		thetas := grouping.Thetas(sum, pp)
		if groups, err = grouping.Geometric(pp, sum, nodes); err != nil {
			return err
		}
		groupLBs = grouping.GroupLBs(pp, sum, thetas, groups)
		return nil
	})
	if err != nil {
		return 0, err
	}
	m["grouping.group_s"] = d.Seconds()
	sDists := make([][]float64, pp.NumPartitions())
	for _, t := range tagged {
		if t.Src == codec.FromS {
			sDists[t.Partition] = append(sDists[t.Partition], t.PivotDist)
		}
	}
	for _, ds := range sDists {
		sort.Float64s(ds)
	}
	m["grouping.exact_replication"] = float64(grouping.ExactReplication(groupLBs, sDists))

	// The wire form of the partitioned file, as job 1 leaves it.
	recs := make([]dfs.Record, len(tagged))
	d, _ = p.span("codec.EncodeTagged", p.root, func() error {
		for i, t := range tagged {
			recs[i] = codec.EncodeTagged(t)
		}
		return nil
	})
	m["codec.encode_tagged_ns"] = float64(d.Nanoseconds()) / float64(len(tagged))
	raw, bytesIn := make([][]byte, len(recs)), 0
	for i, rec := range recs {
		raw[i] = rec
		bytesIn += len(rec)
	}
	d, err = p.span("codec.DecodeBlock", p.root, func() error {
		_, _, _, err := codec.DecodeBlock(raw)
		return err
	})
	if err != nil {
		return 0, err
	}
	m["codec.decode_block_mb_per_s"] = float64(bytesIn) / 1e6 / d.Seconds()

	// Job 2 without its reducer's work: the same keys, routes and
	// replication through Cluster.Run, a reducer that only counts.
	env, err := driver.NewEnv(shuffleCfg)
	if err != nil {
		return 0, err
	}
	defer env.Close()
	if err := env.FS.Write("partitioned", recs); err != nil {
		return 0, err
	}
	job := &mapreduce.Job{
		Name: "probe-shuffle", Input: []string{"partitioned"}, Output: "counts",
		NumReducers: nodes, Partition: mapreduce.Uint32Partition, GroupKeyPrefix: codec.JoinKeyGroupPrefix,
		Map: func(_ *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
			t, err := codec.DecodeTagged(rec)
			if err != nil {
				return err
			}
			if t.Src == codec.FromR {
				emit(codec.JoinKey(groups.GroupOf[t.Partition], t), rec)
				return nil
			}
			for g, lb := range groupLBs[t.Partition] {
				if t.PivotDist >= lb {
					emit(codec.JoinKey(g, t), rec)
				}
			}
			return nil
		},
		Reduce: func(_ *mapreduce.TaskContext, key []byte, values *mapreduce.Values, emit mapreduce.Emit) error {
			var n int64
			for _, ok := values.Next(); ok; _, ok = values.Next() {
				n++
			}
			emit(key[:codec.JoinKeyGroupPrefix], codec.Int64Key(n))
			return nil
		},
	}
	var js *mapreduce.JobStats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err = p.span("mapreduce.Cluster.Run shuffle-only", p.root, func() (err error) {
		js, err = env.Cluster.Run(job)
		return err
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, err
	}
	m["mapreduce.shuffle_s"] = d.Seconds()
	m["mapreduce.shuffle_mb_per_s"] = float64(js.ShuffleBytes) / 1e6 / d.Seconds()
	m["mapreduce.allocs_per_record"] = float64(after.Mallocs-before.Mallocs) / float64(js.ShuffleRecords)
	m["mapreduce.spilled_mb"] = float64(js.SpilledBytes) / 1e6
	if js.ShuffleBytes > 0 {
		m["mapreduce.spill_write_amp"] = float64(js.SpilledBytes) / float64(js.ShuffleBytes)
	}
	m["mapreduce.peak_resident_mb"] = float64(js.PeakResidentBytes) / 1e6
	largest := int64(0)
	for _, n := range js.ReduceInputRecords {
		if n > largest {
			largest = n
		}
	}
	return int(largest), nil
}

// disk times the out-of-core store under the spill engine's DFS: writing
// S and loading it back split by split.
func (p *probe) disk(s []codec.Object, dir string) error {
	store, err := dfs.NewDisk(dir, 0)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	recs, size := make([]dfs.Record, len(s)), 0
	for i, o := range s {
		recs[i] = codec.EncodeTagged(codec.Tagged{Object: o, Src: codec.FromS, Partition: -1})
		size += len(recs[i])
	}
	d, err := p.span("dfs.Disk.Write", p.root, func() error { return store.Write("S", recs) })
	if err != nil {
		return err
	}
	p.metrics["dfs.disk_write_mb_per_s"] = float64(size) / 1e6 / d.Seconds()
	d, err = p.span("dfs.Split.Load", p.root, func() error {
		splits, err := store.Splits("S")
		for _, sp := range splits {
			if err == nil {
				_, err = sp.Load()
			}
		}
		return err
	})
	p.metrics["dfs.disk_load_mb_per_s"] = float64(size) / 1e6 / d.Seconds()
	return err
}

// kernels times the reduce-side scan: 512 real R rows against a block of
// S the size of the largest reduce group, on the default tier and on the
// tier Prepare picks by itself; and the candidate heap alone.
func (p *probe) kernels(r, s []codec.Object, rows, k int) {
	if rows > len(s) {
		rows = len(s)
	}
	blk := &vector.Block{}
	for _, o := range s[:rows] {
		blk.Append(o.ID, 0, o.Point) // reason: one dataset, one dimensionality — ReadCSV checked
	}
	nq := 512
	if nq > len(r) {
		nq = len(r)
	}
	qs, heaps := make([]vector.Point, nq), make([]*nnheap.KHeap, nq)
	for i := range qs {
		qs[i], heaps[i] = r[i*len(r)/nq].Point, nnheap.NewKHeap(k)
	}
	for _, tier := range []struct {
		kernel vector.Kernel
		metric string
	}{{vector.KernelBlock, "vector.kernel_rows_per_us"}, {vector.KernelAuto, "vector.kernel_auto_rows_per_us"}} {
		blk.Prepare(tier.kernel)
		for _, h := range heaps {
			h.Reset()
		}
		var scanned int64
		d, _ := p.span("vector.Block.NearestKBatch "+blk.ActiveKernel().String(), p.root, func() error {
			scanned = blk.NearestKBatch(qs, vector.L2, heaps)
			return nil
		})
		p.metrics[tier.metric] = float64(scanned) / (float64(d.Nanoseconds()) / 1e3)
	}

	rng := rand.New(rand.NewSource(1))
	cands := make([]nnheap.Candidate, 1<<20)
	for i := range cands {
		cands[i] = nnheap.Candidate{ID: int64(i), Dist: rng.Float64()}
	}
	h := nnheap.NewKHeap(k)
	d, _ := p.span("nnheap.KHeap.Push", p.root, func() error {
		for i, c := range cands {
			if i%64 == 0 {
				h.Reset() // a reducer's heap starts empty once per row batch
			}
			h.Push(c)
		}
		return nil
	})
	p.metrics["nnheap.push_ns"] = float64(d.Nanoseconds()) / float64(len(cands))
}

// index times the query tier's layers: vindex.Build and Load, KNNWithStats
// over the run's own request stream, and serve's handler without a
// socket, once missing and once hitting its cache.
func (p *probe) index(s []codec.Object, indexPath, queriesPath string) error {
	m := p.metrics
	var ix *vindex.Index
	d, err := p.span("vindex.Build", p.root, func() (err error) {
		ix, err = vindex.Build(s, vindex.Options{Metric: vector.L2, Seed: 1, BoundK: 16}) // knnindex build's defaults
		return err
	})
	if err != nil {
		return err
	}
	m["vindex.build_s"] = d.Seconds()
	file, err := os.ReadFile(indexPath)
	if err != nil {
		return err
	}
	m["vindex.file_mb"] = float64(len(file)) / 1e6
	d, err = p.span("vindex.Load", p.root, func() (err error) {
		ix, err = vindex.Load(bytes.NewReader(file))
		return err
	})
	if err != nil {
		return err
	}
	m["vindex.load_s"] = d.Seconds()

	raw, err := os.ReadFile(queriesPath)
	if err != nil {
		return err
	}
	bodies := strings.Split(strings.TrimSpace(string(raw)), "\n")
	reqs := make([]serve.KNNRequest, len(bodies))
	for i, b := range bodies {
		if err := json.Unmarshal([]byte(b), &reqs[i]); err != nil {
			return fmt.Errorf("%s line %d: %w", queriesPath, i+1, err)
		}
	}
	var total vindex.Stats
	var marshal time.Duration
	us := make([]float64, len(reqs))
	p.span("vindex.Index.KNNWithStats", p.root, func() error {
		for i, q := range reqs {
			t0 := time.Now()
			res, st := ix.KNNWithStats(q.Point, q.K)
			t1 := time.Now()
			if _, err := serve.MarshalKNN(res, st); err != nil {
				return err
			}
			marshal += time.Since(t1)
			us[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
			total.Add(st)
		}
		return nil
	})
	sort.Float64s(us)
	n := float64(len(reqs))
	m["vindex.knn_us_p50"], m["vindex.knn_us_p90"] = us[len(us)/2], us[len(us)*9/10]
	m["vindex.dist_comps_per_query"] = float64(total.DistComputations) / n
	m["vindex.parts_scanned_per_query"] = float64(total.PartitionsScanned) / n
	m["vindex.parts_pruned_frac"] = float64(total.PartitionsPruned) / float64(total.PartitionsPruned+total.PartitionsScanned)
	m["serve.marshal_us"] = float64(marshal.Nanoseconds()) / 1e3 / n

	// Distinct bodies no larger in number than the cache: the first pass
	// misses every time, the second hits every time.
	seen, distinct := map[string]bool{}, []string{}
	for _, b := range bodies {
		if !seen[b] && len(distinct) < 512 {
			seen[b] = true
			distinct = append(distinct, b)
		}
	}
	handler := serve.New(ix, indexPath, serve.Config{Workers: 2, CacheSize: 1024}).Handler()
	for _, pass := range []string{"serve.handler_miss_us_p50", "serve.handler_hit_us_p50"} {
		us = us[:0]
		_, err := p.span(strings.TrimSuffix(pass, "_us_p50"), p.root, func() error {
			for _, b := range distinct {
				req := httptest.NewRequest("POST", "/knn", strings.NewReader(b))
				rec := httptest.NewRecorder()
				t0 := time.Now()
				handler.ServeHTTP(rec, req)
				us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
				if rec.Code != 200 {
					return fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		sort.Float64s(us)
		m[pass] = us[len(us)/2]
	}
	return nil
}
