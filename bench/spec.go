package main

import "time"

// A workload is a dataset plus the deployment a user runs it on: which
// engine flags knnjoin gets, how knnserve is started and what request
// stream it sees. BENCHMARK.json is generated from this table and the
// metric tables below (`bench manifest`), so the names here are the
// names later issues quote.
type workload struct {
	Name string
	Why  string

	Kind       string   // datagen -kind: "osm" (self-join) or "forest" (R ⋉ S)
	JoinFlags  []string // engine flags added to every knnjoin process (the spill engine's come from the scale)
	ServeFlags []string // topology flags added to every knnserve process
	Hot        bool     // request stream: Zipf over the pool instead of uniform
	Engine     string   // the probe's engine: "mem", "spill" or "workers"
}

// spillLimit is the -mem-limit of the spill workload. The smoke scale
// lowers it so its small shuffle still overflows.
const spillLimit = "8M"

var workloads = []workload{
	{
		Name: "osm2d_mem",
		Why:  "2-d Zipf city clusters, self-join in process, cold queries: pivot assignment and HTTP/JSON dominate; kernel and shuffle work should not show",
		Kind: "osm", Engine: "mem",
	},
	{
		Name: "forest10d_mem",
		Why:  "the paper's headline case, 10-d Forest x10 in process, cold queries: job 2 (route, sort, merge, decode, kernel) and the partition walk dominate",
		Kind: "forest", Engine: "mem",
	},
	{
		Name: "forest10d_spill_hot",
		Why:  "same input under -mem-limit 8M with a Zipf request stream: the only workload where run files and merge passes work and the LRU answers most requests",
		Kind: "forest", Engine: "spill", Hot: true, // join flags: -mem-limit from the scale, -spill-dir in the run's directory
	},
	{
		Name: "forest10d_workers_shards",
		Why:  "same input on -workers 2 and behind -shards 2, cold queries: task leases, chunk service and scan RPCs, the multi-process paths of mapreduce and vindex",
		Kind: "forest", Engine: "workers",
		JoinFlags:  []string{"-workers", "2"},
		ServeFlags: []string{"-shards", "2"},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scale fixes how much work one run does. Phases are time-boxed from
// --seconds: a slow host runs fewer repetitions (never fewer than the
// minima), it does not overrun.
type scale struct {
	OSMN    int // datagen -kind osm -n
	ForestN int // datagen -kind forest -n, for R and for the base of S
	Expand  int // S = ForestN × Expand
	Pool    int // distinct perturbed query points
	Sample  int // R ids and queries checked against brute force

	Joins, MinJoins   int // join processes per run
	Slices, MinSlices int // serving slices per run
	Setups            int // fresh set-ups per run
	SliceDur, Warm    time.Duration
	MemLimit          string

	// The traced pass repeats less: its numbers carry no bound.
	TraceJoins, TraceSlices int
	BatchDur                time.Duration
	ProbeQueries            int
}

var fullScale = scale{
	OSMN: 100000, ForestN: 15000, Expand: 10, Pool: 50000, Sample: 256,
	Joins: 7, MinJoins: 5, Slices: 9, MinSlices: 6, Setups: 3,
	SliceDur: time.Second, Warm: 700 * time.Millisecond, MemLimit: spillLimit,
	TraceJoins: 4, TraceSlices: 3, BatchDur: 2 * time.Second, ProbeQueries: 2000,
}

// smokeScale is the self-test's: every code path, a few seconds a run.
var smokeScale = scale{
	OSMN: 2000, ForestN: 400, Expand: 5, Pool: 500, Sample: 32,
	Joins: 2, MinJoins: 2, Slices: 2, MinSlices: 2, Setups: 2,
	SliceDur: 500 * time.Millisecond, Warm: 200 * time.Millisecond, MemLimit: "64K",
	TraceJoins: 2, TraceSlices: 1, BatchDur: 300 * time.Millisecond, ProbeQueries: 200,
}

// Shares of --seconds: joins get joinShare, serving (warm-ups included)
// the rest.
const joinShare = 0.55

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd: what a user of the system sees. Every workload prints every
// one, none is ever zero, each is taken from its repetitions inside the
// run by inRun in run.go. The bounds come from the noise table in
// README.md.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"join_wall_s", "s", "lower", 0.25},
	{"join_peak_rss_mb", "MB", "lower", 0.25},
	{"query_rps", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
}

const (
	lo = "lower"
	hi = "higher"
)

// perLayer: the traced pass. The prefix is the package the number
// belongs to; a layer the workload bypasses prints 0.
var perLayer = []metric{
	{Name: "knnjoin.cpu_s", Unit: "s", Better: lo},
	{Name: "knnjoin.io_s", Unit: "s", Better: lo},
	{Name: "knnjoin.rep_spread", Unit: "ratio", Better: lo},
	{Name: "knnjoin.rangejoin_wall_s", Unit: "s", Better: lo},

	{Name: "dataset.read_csv_s", Unit: "s", Better: lo},
	{Name: "driver.load_rs_s", Unit: "s", Better: lo},
	{Name: "driver.results_s", Unit: "s", Better: lo},

	{Name: "pivot.select_s", Unit: "s", Better: lo},
	{Name: "pivot.dist_comps", Unit: "count", Better: lo},

	{Name: "voronoi.assign_ns_per_obj", Unit: "ns", Better: lo},
	{Name: "voronoi.assign_dist_comps_per_obj", Unit: "count", Better: lo},
	{Name: "voronoi.summary_s", Unit: "s", Better: lo},

	{Name: "grouping.group_s", Unit: "s", Better: lo},
	{Name: "grouping.exact_replication", Unit: "count", Better: lo},

	{Name: "pgbj.run_s", Unit: "s", Better: lo},
	{Name: "pgbj.phase_pivot_s", Unit: "s", Better: lo},
	{Name: "pgbj.phase_partition_s", Unit: "s", Better: lo},
	{Name: "pgbj.phase_merge_s", Unit: "s", Better: lo},
	{Name: "pgbj.phase_grouping_s", Unit: "s", Better: lo},
	{Name: "pgbj.phase_join_s", Unit: "s", Better: lo},
	{Name: "pgbj.join_map_s", Unit: "s", Better: lo},
	{Name: "pgbj.join_reduce_s", Unit: "s", Better: lo},
	{Name: "pgbj.phase_coverage", Unit: "ratio", Better: hi},
	{Name: "pgbj.dist_comps", Unit: "count", Better: lo},
	{Name: "pgbj.selectivity_permille", Unit: "permille", Better: lo},
	{Name: "pgbj.shuffle_mb", Unit: "MB", Better: lo},
	{Name: "pgbj.shuffle_records", Unit: "count", Better: lo},
	{Name: "pgbj.avg_replication", Unit: "ratio", Better: lo},
	{Name: "pgbj.reduce_skew", Unit: "ratio", Better: lo},
	{Name: "pgbj.output_pairs", Unit: "count", Better: hi},

	{Name: "mapreduce.shuffle_s", Unit: "s", Better: lo},
	{Name: "mapreduce.shuffle_mb_per_s", Unit: "MB/s", Better: hi},
	{Name: "mapreduce.allocs_per_record", Unit: "count", Better: lo},
	{Name: "mapreduce.spilled_mb", Unit: "MB", Better: lo},
	{Name: "mapreduce.spill_write_amp", Unit: "ratio", Better: lo},
	{Name: "mapreduce.peak_resident_mb", Unit: "MB", Better: lo},
	{Name: "mapreduce.worker_tasks", Unit: "count", Better: lo},
	{Name: "mapreduce.reexecuted_attempts", Unit: "count", Better: lo},
	{Name: "mapreduce.worker_task_s_sum", Unit: "s", Better: lo},
	{Name: "mapreduce.worker_idle_frac", Unit: "ratio", Better: lo},
	{Name: "mapreduce.engine_overhead_s", Unit: "s", Better: lo},

	{Name: "dfs.disk_write_mb_per_s", Unit: "MB/s", Better: hi},
	{Name: "dfs.disk_load_mb_per_s", Unit: "MB/s", Better: hi},

	{Name: "codec.decode_block_mb_per_s", Unit: "MB/s", Better: hi},
	{Name: "codec.encode_tagged_ns", Unit: "ns", Better: lo},

	{Name: "vector.kernel_rows_per_us", Unit: "rows/us", Better: hi},
	{Name: "vector.kernel_auto_rows_per_us", Unit: "rows/us", Better: hi},
	{Name: "nnheap.push_ns", Unit: "ns", Better: lo},

	{Name: "vindex.build_s", Unit: "s", Better: lo},
	{Name: "vindex.load_s", Unit: "s", Better: lo},
	{Name: "vindex.file_mb", Unit: "MB", Better: lo},
	{Name: "vindex.knn_us_p50", Unit: "us", Better: lo},
	{Name: "vindex.knn_us_p90", Unit: "us", Better: lo},
	{Name: "vindex.dist_comps_per_query", Unit: "count", Better: lo},
	{Name: "vindex.parts_scanned_per_query", Unit: "count", Better: lo},
	{Name: "vindex.parts_pruned_frac", Unit: "ratio", Better: hi},

	{Name: "serve.handler_miss_us_p50", Unit: "us", Better: lo},
	{Name: "serve.handler_hit_us_p50", Unit: "us", Better: lo},
	{Name: "serve.marshal_us", Unit: "us", Better: lo},
	{Name: "serve.cache_hit_rate", Unit: "ratio", Better: hi},
	{Name: "serve.errors", Unit: "count", Better: lo},
	{Name: "serve.request_us_p50", Unit: "us", Better: lo},
	{Name: "serve.transport_us_p50", Unit: "us", Better: lo},
	{Name: "serve.p99_ms", Unit: "ms", Better: lo},
	{Name: "serve.batch_qps", Unit: "1/s", Better: hi},

	{Name: "shard.start_s", Unit: "s", Better: lo},
	{Name: "shard.scan_rpcs_per_query", Unit: "count", Better: lo},
	{Name: "shard.shards_per_query", Unit: "count", Better: lo},
	{Name: "shard.scan_rpc_us_p50", Unit: "us", Better: lo},
	{Name: "shard.router_self_us_p50", Unit: "us", Better: lo},
	{Name: "shard.failovers", Unit: "count", Better: lo},

	{Name: "obs.trace_overhead_frac_query", Unit: "ratio", Better: lo},
	{Name: "obs.trace_overhead_frac_join", Unit: "ratio", Better: lo},
	{Name: "obs.spans_per_query", Unit: "count", Better: lo},
}

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// --seconds.
const runSeconds = 25
