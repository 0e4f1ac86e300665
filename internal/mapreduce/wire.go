package mapreduce

import "knnjoin/internal/dfs"

// What passes between the scheduler and a worker: an assignment out, a
// completion (and heartbeats) back. A goroutine worker receives and
// returns these structs by pointer and reads their unexported fields —
// the job itself, resident runs, output records, the error value. A
// worker process speaks HTTP POSTs with JSON bodies, in the style of
// internal/serve, and sees only the exported fields:
//
//	POST /poll      pollRequest      → pollResponse (a task, or a wait)
//	POST /done      completion       → completionResponse
//	POST /heartbeat heartbeatMsg     → heartbeatResponse
//
// Processes pull — the coordinator never dials a worker. Every byte of
// a job goes by path, named in these messages: coordinator and workers
// share one filesystem (one machine, many processes — the shape of the
// paper's one-box "cluster"). A map task's input split is a range of a
// dfs.Disk file, run files and output files live in the cluster's
// scratch directory.

// assignment is one task attempt handed to a worker, self-contained.
type assignment struct {
	JobID   int64
	JobName string
	// Kind and Spec rebuild the job's functions in a worker process;
	// goroutine workers use job instead.
	Kind string
	Spec []byte

	Phase   string // "map" or "reduce"
	Index   int    // task index; a map task's input split has the same index
	Attempt int

	// Split is a map task's input: its records on a goroutine worker,
	// their location in a dfs.Disk file for a worker process.
	Split *dfs.Split

	NumReducers int
	MapOnly     bool

	// Runs lists a reduce task's fan-in: the committed map runs for this
	// reducer, in map-task order — the merge's tie-breaking seq order.
	Runs []runData

	// RunDir is where the attempt writes run files ("" keeps every run
	// resident). Attempts of one job on goroutine workers share the
	// job's spill directory and name sequence; a worker process gets an
	// attempt-private directory, so a dead attempt's half-written files
	// are simply never referenced — idempotency by isolation, on top of
	// each file's own tmp+rename commit.
	RunDir string

	// FanIn and MergeShare are the engine's merge budget
	// (Engine.mergeBudget).
	FanIn      int
	MergeShare int64

	// TraceID and SpanParent propagate the scheduler's job span to the
	// worker, which parents its task-attempt span under them. Both
	// empty when tracing is disabled; they ride only this request-side
	// struct, never a response, so enabling tracing cannot perturb any
	// output byte.
	TraceID    string
	SpanParent string

	job *Job
	mem *memAccount // the job's resident-memory account
	id  string      // taskID's memo
}

// pollRequest asks for a task.
type pollRequest struct {
	Worker int
}

// pollResponse carries an assignment, a backoff hint, or a shutdown.
type pollResponse struct {
	Task     *assignment
	WaitMs   int64
	Shutdown bool
}

// completion reports a finished attempt, success or failure.
type completion struct {
	Worker  int
	JobID   int64
	Phase   string
	Index   int
	Attempt int

	// Err is the failure message; empty means success. Goroutine
	// workers also keep the error value, so callers of Cluster.Run can
	// still unwrap it.
	Err string
	err error
	// BadRuns lists input run files found truncated or unreadable — the
	// scheduler re-executes their producing map tasks.
	BadRuns []string

	// Runs are a map attempt's committed runs, one per reducer.
	Runs []runData
	// OutFile is a reduce (or map-only) attempt's output committed as a
	// file of framed records by a worker process; goroutine workers
	// hand the records over in out.
	OutFile *runFile
	out     []dfs.Record

	Records      int64 // map input records consumed
	Groups       int64 // reduce key groups
	Work         int64
	SpilledRuns  int64
	SpilledBytes int64
	Counters     map[string]int64
}

// completionResponse acknowledges a report; Accepted is false for
// duplicates and stale attempts, which the scheduler ignores.
type completionResponse struct {
	Accepted bool
}

// heartbeatMsg renews an attempt's lease.
type heartbeatMsg struct {
	Worker  int
	JobID   int64
	Phase   string
	Index   int
	Attempt int
}

// heartbeatResponse tells a worker whether its attempt is still wanted.
type heartbeatResponse struct {
	Abandoned bool
}

// workerConfig is shipped to a spawned worker process via environment
// variable, everything it needs to join the cluster.
type workerConfig struct {
	URL         string // coordinator base URL
	Index       int    // this worker's index
	HeartbeatMs int64
	Faults      *FaultPlan
	// TraceDir, when non-empty, makes the worker record task-attempt
	// spans to its own JSONL file in this shared trace directory.
	TraceDir string
}
