// Package mapreduce is a MapReduce runtime with Hadoop-like semantics,
// built to host the paper's two-job kNN-join pipeline.
//
// It reproduces the properties the paper's algorithms and measurements
// depend on:
//
//   - map tasks consume DFS input splits (one task per split, §2.2);
//   - intermediate key-value pairs carry raw byte-comparable keys, are
//     partitioned across N reducers, and each map task sorts its
//     per-reducer output into a run (Hadoop's map-side sort/spill);
//   - reduce tasks k-way-merge the sorted runs of every map task and
//     stream each key group to the reduce function through an iterator —
//     no reducer ever materializes a per-key value table;
//   - composite keys grouped on a key prefix deliver each group's values
//     in the order of the keys' suffixes, like Hadoop's grouping
//     comparator;
//   - every byte crossing the shuffle is counted, which is exactly the
//     "shuffling cost" series of Figures 8–12;
//   - the simulated cluster has a fixed number of nodes, each running one
//     map and one reduce slot (the paper's Hadoop configuration), and the
//     engine reports both wall-clock phase times and a deterministic
//     simulated makespan based on user-reported work units;
//   - tasks can fail and workers can die, and one scheduler retries and
//     re-dispatches them, so the fault-tolerance path the paper credits
//     MapReduce for is present and testable;
//   - there is one task executor and one scheduler (coord.go, worker.go):
//     workers are goroutines of this process by default, and re-executed
//     worker processes speaking HTTP/JSON on a distributed cluster;
//   - between the phases runs stay in memory by default; an Engine with a
//     spill directory writes map-side sorted runs to length-prefixed run
//     files and streams them back through a bounded-memory k-way merge —
//     Hadoop's external shuffle, with byte-identical job output either
//     way.
//
// Jobs are expressed with plain functions rather than an interface zoo:
// a Map function and an optional Reduce function (nil makes a map-only
// job, as the paper's first job is).
package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"knnjoin/internal/dfs"
	"knnjoin/internal/obs"
)

// KV is an intermediate key-value pair. Keys are raw bytes and compare
// with bytes.Compare, so numeric keys encoded big-endian sort in numeric
// order (string-keyed engines sort "10" before "9"; this one does not).
type KV struct {
	Key   []byte
	Value []byte
}

// Emit is the output callback handed to map and reduce functions.
// The engine retains both slices, so callers must not reuse their backing
// arrays after emitting.
type Emit func(key, value []byte)

// MapFunc processes one input record. ctx carries counters.
type MapFunc func(ctx *TaskContext, record dfs.Record, emit Emit) error

// ReduceFunc processes one key group. key is the group's first full key
// in sort order; values streams every value of the group, sorted by full
// key (ties arrive in a deterministic but unspecified order, map tasks
// first).
type ReduceFunc func(ctx *TaskContext, key []byte, values *Values, emit Emit) error

// PartitionFunc routes a key to one of n reducers. With GroupKeyPrefix
// set, all keys sharing a group prefix must route identically.
type PartitionFunc func(key []byte, n int) int

// DefaultPartition hashes the key with FNV-1a, Hadoop-style.
func DefaultPartition(key []byte, n int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(n))
}

// Uint32Partition routes keys carrying a fixed-width big-endian uint32
// prefix (codec.Uint32Key, codec.JoinKey) to reducer value%n — the
// modulo routing every join driver uses for its reducer ids.
func Uint32Partition(key []byte, n int) int {
	if len(key) < 4 {
		return 0
	}
	return int(binary.BigEndian.Uint32(key) % uint32(n))
}

// Job describes one MapReduce job.
type Job struct {
	Name   string
	Input  []string // DFS input files
	Output string   // DFS output file; reduce (or map-only) emissions land here

	// Kind names the registered job constructor (see DefineKind) that can
	// rebuild this job — functions included — in another process, and
	// Spec is the gob-encoded argument it rebuilds from. Functions
	// cannot cross a process boundary, so only jobs built
	// through a Kind run on worker processes; a distributed cluster
	// executes kindless jobs on goroutine workers instead, as a cluster
	// without worker processes executes every job.
	Kind string
	Spec []byte

	Map       MapFunc
	Reduce    ReduceFunc // nil ⇒ map-only job
	Partition PartitionFunc

	// GroupKeyPrefix, when positive, makes reduce groups span every key
	// sharing the same first GroupKeyPrefix bytes — Hadoop's grouping
	// comparator for composite keys. Sorting always uses the full key, so
	// a composite key's suffix (e.g. a pivot-distance) orders the values
	// within the group. The partitioner must route on the same prefix
	// (DefaultPartition is wrapped automatically; custom partitioners are
	// the caller's contract).
	GroupKeyPrefix int

	NumReducers int // defaults to the cluster's node count

	// MaxAttempts bounds the attempts of one task that may fail with an
	// error. Zero means 1 attempt.
	MaxAttempts int
}

// resolvePartition returns the job's partitioner, defaulting to FNV
// hashing of the grouping view of the key.
func resolvePartition(job *Job) PartitionFunc {
	if job.Partition != nil {
		return job.Partition
	}
	prefix := job.GroupKeyPrefix
	return func(key []byte, n int) int {
		return DefaultPartition(groupOf(key, prefix), n)
	}
}

// groupOf returns the grouping view of key: its first prefix bytes when
// prefix is positive and the key is long enough, the whole key otherwise.
func groupOf(key []byte, prefix int) []byte {
	if prefix > 0 && len(key) > prefix {
		return key[:prefix]
	}
	return key
}

// TaskContext is the per-task environment passed to user functions.
type TaskContext struct {
	// JobName and TaskID identify the running task, e.g. "knn/map/3".
	JobName string
	TaskID  string

	counters *CounterSet
	work     int64
}

// Counter adds delta to the named user counter.
func (c *TaskContext) Counter(name string, delta int64) { c.counters.Add(name, delta) }

// AddWork reports abstract work units (the repo uses distance
// computations) consumed by this task. The scheduler turns per-task work
// into the simulated makespans reported in JobStats.
func (c *TaskContext) AddWork(units int64) { c.work += units }

// CounterSet is a concurrency-safe named-counter bag.
type CounterSet struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounterSet returns an empty counter set.
func NewCounterSet() *CounterSet { return &CounterSet{m: make(map[string]int64)} }

// Add increments the named counter by delta.
func (s *CounterSet) Add(name string, delta int64) {
	s.mu.Lock()
	s.m[name] += delta
	s.mu.Unlock()
}

// Get returns the named counter's value.
func (s *CounterSet) Get(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name]
}

// Snapshot returns a copy of all counters.
func (s *CounterSet) Snapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

// JobStats reports what one job did and what it cost.
type JobStats struct {
	Job               string
	MapTasks          int
	ReduceTasks       int
	MapInputRecords   int64
	ShuffleRecords    int64 // records crossing the shuffle
	ShuffleBytes      int64 // key+value bytes crossing the shuffle
	ReduceGroups      int64
	OutputRecords     int64
	MapWall           time.Duration
	ReduceWall        time.Duration
	SimMapMakespan    int64 // greedy-scheduled max work per node, map phase
	SimReduceMakespan int64
	// ReduceInputRecords holds each reduce task's input record count —
	// the raw material of load-balance analysis (the paper's §6.1.1
	// "unbalanced workload" discussion made measurable).
	ReduceInputRecords []int64
	// SpilledRuns and SpilledBytes count the sorted runs (and their
	// key+value payload) written to the spill directory, including
	// intermediate fan-in merges, by attempts that committed — zero on
	// the in-memory backend.
	SpilledRuns  int64
	SpilledBytes int64
	// PeakResidentBytes is the high-water mark of shuffle bytes held in
	// memory: retained runs plus open merge read-ahead buffers. On the
	// in-memory backend this reaches the full shuffle size; on the spill
	// backend it stays within the engine's MemLimit. A job run on worker
	// processes reports 0 — residency is per process there.
	PeakResidentBytes int64
	// WorkerTasks counts tasks committed by worker processes — zero
	// unless the job ran on them, where it equals MapTasks + ReduceTasks
	// (proof the job did not run on goroutine workers).
	WorkerTasks int
	// ReexecutedAttempts counts task re-dispatches forced by failure:
	// exited workers, lost leases (frozen workers) and damaged
	// intermediate runs. Zero on a fault-free run.
	ReexecutedAttempts int64
	// SpeculativeAttempts counts backup attempts launched against
	// stragglers (Config.SpeculativeAfter).
	SpeculativeAttempts int64
	// Counters sums the user counters of the attempts that committed.
	Counters map[string]int64
}

// ReduceSkew returns the max-over-mean ratio of reduce-task input sizes:
// 1 is perfect balance; the job's critical path grows with this factor.
// Jobs with no reduce input report 0.
func (s JobStats) ReduceSkew() float64 {
	var total, max int64
	for _, n := range s.ReduceInputRecords {
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(s.ReduceInputRecords))
	return float64(max) / mean
}

// Total wall time of the job's compute phases.
func (s JobStats) Wall() time.Duration { return s.MapWall + s.ReduceWall }

// Cluster is a simulated shared-nothing cluster: a DFS plus a fixed number
// of nodes, each contributing one map slot and one reduce slot, and the
// scheduler that runs jobs on them. Each job gets one goroutine worker per
// node, unless the cluster has worker processes and the job a Kind. The
// cluster's Engine decides where shuffle data lives between the phases —
// the zero Engine keeps every run in memory, a spill-configured Engine
// runs the out-of-core external shuffle.
type Cluster struct {
	fs    dfs.Store
	nodes int
	cfg   Config

	// Scheduler state (coord.go). wake signals idle goroutine workers;
	// cur is the job the worker processes are serving.
	mu     sync.Mutex
	wake   *sync.Cond
	closed bool
	jobSeq int64
	cur    *coordJob

	// Per goroutine worker, by index: fault-plan state, which outlives a
	// job's goroutines so an event fires once per worker, and the span
	// file. All nil without a fault plan or tracing.
	injectors []*injector
	tracers   []*obs.Tracer

	// procs is the process transport; nil without worker processes.
	procs *workerProcs

	// Observability: nil tracer and span when tracing is off, nil
	// counters without worker processes (whose coordinator serves them
	// on /metrics) — every use no-ops.
	tracer   *obs.Tracer
	rootSpan *obs.Span
	mJobs    *obs.Counter
	mTasks   *obs.Counter
	mReexec  *obs.Counter
	mSpec    *obs.Counter
	mShufB   *obs.Counter
	mSpillB  *obs.Counter
}

// NewCluster creates a cluster of n nodes over fs, configured by cfg;
// the zero Config is the in-process engine with an in-memory shuffle.
// With cfg.Workers > 0 it also starts the worker processes, polling a
// coordinator on loopback; they read input splits from fs's files, so
// fs must then be a *dfs.Disk. The caller must Close the cluster to
// reap the workers, the scratch directory and the trace files. n must
// be positive; it governs NumReducers defaults, makespan accounting and
// the number of goroutine workers, whether or not there are processes.
func NewCluster(fs dfs.Store, n int, cfg Config) (*Cluster, error) {
	if n <= 0 {
		panic("mapreduce: cluster needs at least one node")
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("mapreduce: Config.Workers must not be negative, got %d", cfg.Workers)
	}
	if _, disk := fs.(*dfs.Disk); cfg.Workers > 0 && !disk {
		return nil, fmt.Errorf("mapreduce: worker processes read input splits from files; Config.Workers needs a *dfs.Disk store, got %T", fs)
	}
	if err := cfg.Engine.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{fs: fs, nodes: n, cfg: cfg, injectors: make([]*injector, n), tracers: make([]*obs.Tracer, n)}
	c.wake = sync.NewCond(&c.mu)
	for i := range c.injectors {
		c.injectors[i] = newInjector(i, cfg.Faults)
	}
	if cfg.TraceDir != "" {
		var err error
		if c.tracer, err = obs.NewTracer(cfg.TraceDir, "coord"); err != nil {
			return nil, err
		}
		for i := range c.tracers {
			if c.tracers[i], err = obs.NewTracer(cfg.TraceDir, fmt.Sprintf("worker-%d", i)); err != nil {
				c.Close()
				return nil, err
			}
		}
		c.rootSpan = c.tracer.StartSpan("cluster", obs.SpanContext{})
		c.rootSpan.SetAttr("workers", fmt.Sprint(cfg.Workers))
	}
	if cfg.Workers > 0 {
		if err := c.startProcs(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// FS returns the cluster's filesystem.
func (c *Cluster) FS() dfs.Store { return c.fs }

// Nodes returns the number of simulated nodes.
func (c *Cluster) Nodes() int { return c.nodes }

// Distributed reports whether jobs with a registered Kind execute on
// worker processes (Config.Workers).
func (c *Cluster) Distributed() bool { return c.procs != nil }

// Close fails the job the worker processes are running, kills them, stops
// the coordinator, removes the scratch directory and closes the trace
// files; on a cluster with none of those it only refuses further jobs.
// Close is idempotent.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.cur != nil {
		c.finishLocked(c.cur, errors.New("mapreduce: cluster closed"))
	}
	c.mu.Unlock()
	if c.procs != nil {
		c.procs.stop()
	}
	c.rootSpan.End()
	for _, tr := range c.tracers {
		tr.Close()
	}
	return c.tracer.Close()
}

// Run executes the job and returns its statistics. On any task error
// (after retries) the job aborts with that error.
func (c *Cluster) Run(job *Job) (*JobStats, error) {
	if job.Map == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no Map function", job.Name)
	}
	if job.Output == "" {
		return nil, fmt.Errorf("mapreduce: job %q has no Output file", job.Name)
	}
	splits, err := c.fs.Splits(job.Input...)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
	}
	return c.runJob(job, splits)
}

// streamGroups drives fn over every key group of the merge stream: one
// call per group, values delivered through a streaming iterator. Groups
// are maximal key ranges sharing groupOf(key, prefix). Unconsumed values
// are drained after fn returns, so a group can be skipped cheaply.
func streamGroups(ctx *TaskContext, fn ReduceFunc, m *merger, prefix int, emit Emit) (int64, error) {
	var groups int64
	for {
		kv, ok := m.peek()
		if !ok {
			return groups, nil
		}
		groups++
		vi := &Values{m: m, group: groupOf(kv.Key, prefix), prefix: prefix}
		if err := fn(ctx, kv.Key, vi, emit); err != nil {
			return groups, fmt.Errorf("reduce key %q: %w", kv.Key, err)
		}
		for { // drain whatever the reduce function left unread
			if _, ok := vi.Next(); !ok {
				break
			}
		}
	}
}

// Values streams one key group's values to a reduce function, in
// full-key order. The iterator is only valid during the function call
// that received it.
type Values struct {
	m      *merger
	group  []byte
	prefix int
}

// Next returns the group's next value, or ok=false when the group is
// exhausted. The returned slice is the emitted value itself — treat it as
// read-only.
func (v *Values) Next() ([]byte, bool) {
	kv, ok := v.m.peek()
	if !ok || !bytes.Equal(groupOf(kv.Key, v.prefix), v.group) {
		return nil, false
	}
	v.m.pop()
	return kv.Value, true
}

// Key returns the full composite key of the value peek'd next, or nil at
// group end — how a reducer reads a composite key's suffix while
// streaming.
func (v *Values) Key() []byte {
	kv, ok := v.m.peek()
	if !ok || !bytes.Equal(groupOf(kv.Key, v.prefix), v.group) {
		return nil
	}
	return kv.Key
}

// Remaining returns the records, and their key+value payload bytes,
// left in the task's merge stream: the rest of this group plus every
// later group of the task. It is an upper bound on how many values Next
// will still deliver, and exact when the task holds one group — what a
// reducer needs to size its group's storage once instead of growing it
// per value. Each spilled run contributes its declared counts capped by
// what its file's size on disk can hold, so a damaged run description
// can never claim more than the bytes that exist.
func (v *Values) Remaining() (records, bytes int64) {
	return v.m.records, v.m.bytes
}

// Collect drains the remaining values into a slice — for the rare reducer
// (and for tests) that genuinely needs the group materialized.
func (v *Values) Collect() [][]byte {
	var out [][]byte
	for {
		val, ok := v.Next()
		if !ok {
			return out
		}
		out = append(out, val)
	}
}

// merger k-way-merges sorted runs. Order: key bytes, then run index
// (which preserves map-task order for ties — the old engine's "arrival
// order within a key"). Runs arrive as cursors,
// so in-memory slices and spilled run files merge through the same heap;
// each heap entry caches its cursor's current record, keeping the
// comparison path free of indirect calls. records and bytes count what
// the stream has left to deliver (see Values.Remaining).
type merger struct {
	heap           []mergeSource
	fail           error
	records, bytes int64
}

type mergeSource struct {
	cur KV
	src cursor
	seq int
}

// newMerger merges arbitrary cursors; a cursor's slice position is its
// tie-breaking seq, so callers must pass runs in map-task order.
func newMerger(cursors []cursor) *merger {
	m := &merger{}
	for i, c := range cursors {
		records, bytes := c.size()
		m.records += records
		m.bytes += bytes
		if kv, ok := c.peek(); ok {
			m.heap = append(m.heap, mergeSource{cur: kv, src: c, seq: i})
		} else if err := c.err(); err != nil && m.fail == nil {
			m.fail = err
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

// failure reports the first cursor error the merge encountered; the
// stream ends early when a source fails, and the consuming task must
// treat its output as incomplete.
func (m *merger) failure() error { return m.fail }

func (m *merger) less(a, b mergeSource) bool {
	if c := bytes.Compare(a.cur.Key, b.cur.Key); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

func (m *merger) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(m.heap) && m.less(m.heap[l], m.heap[min]) {
			min = l
		}
		if r < len(m.heap) && m.less(m.heap[r], m.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		m.heap[i], m.heap[min] = m.heap[min], m.heap[i]
		i = min
	}
}

// peek returns the smallest pending KV without consuming it.
func (m *merger) peek() (KV, bool) {
	if len(m.heap) == 0 {
		return KV{}, false
	}
	return m.heap[0].cur, true
}

// pop consumes the smallest pending KV.
func (m *merger) pop() {
	s := &m.heap[0]
	// A spilled run's counts are only as honest as its description; a
	// stream that delivers more than it declared bottoms out at zero.
	m.records = max(m.records-1, 0)
	m.bytes = max(m.bytes-int64(len(s.cur.Key)+len(s.cur.Value)), 0)
	s.src.advance()
	if kv, ok := s.src.peek(); ok {
		s.cur = kv
	} else {
		if err := s.src.err(); err != nil && m.fail == nil {
			m.fail = err
		}
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	m.down(0)
}

// makespan greedily schedules tasks (in index order) onto the least-loaded
// of `nodes` slots and returns the resulting maximum slot load. This is the
// deterministic "simulated parallel time" used by the speedup experiments.
func makespan(work []int64, nodes int) int64 {
	if len(work) == 0 {
		return 0
	}
	if nodes > len(work) {
		nodes = len(work)
	}
	slots := make([]int64, nodes)
	for _, w := range work {
		min := 0
		for s := 1; s < nodes; s++ {
			if slots[s] < slots[min] {
				min = s
			}
		}
		slots[min] += w
	}
	var max int64
	for _, s := range slots {
		if s > max {
			max = s
		}
	}
	return max
}
