package knnjoin

import "knnjoin/internal/mapreduce"

// Cluster mode: with Options.Workers > 0 every MapReduce job runs on
// separate worker processes — re-executions of the current binary —
// speaking an HTTP/JSON RPC protocol to the same scheduler that by
// default drives goroutine workers, with failure detection and task
// re-execution. Output is byte-identical either way; the mode exists to
// exercise and measure the coordination itself (see internal/mapreduce).

// RunWorkerIfSpawned turns the current process into a MapReduce worker
// when it was spawned as one (the coordinator re-executes the binary
// with a private environment variable) and never returns in that case.
// In the ordinary parent process it is a no-op.
//
// Any program that sets Options.Workers, RangeOptions.Workers or
// PairOptions.Workers must call it first thing in main — before flag
// parsing or any other work — and any test binary in its TestMain.
func RunWorkerIfSpawned() { mapreduce.RunWorkerIfSpawned() }

// FaultPlan is a deterministic fault-injection plan for the workers,
// goroutines or processes: a testing hook that kills, fails, stalls,
// freezes or corrupts them at fixed task checkpoints. See the mapreduce
// package for the event fields.
type FaultPlan = mapreduce.FaultPlan

// FaultEvent is one injected fault of a FaultPlan.
type FaultEvent = mapreduce.FaultEvent

// FaultPoint locates a fault within a task attempt's lifecycle.
type FaultPoint = mapreduce.FaultPoint

// FaultAction is what an injected fault does to the worker.
type FaultAction = mapreduce.FaultAction

// Fault checkpoints and actions, re-exported for FaultPlan literals.
const (
	AtTaskStart  = mapreduce.AtTaskStart
	AtMidTask    = mapreduce.AtMidTask
	AtPreCommit  = mapreduce.AtPreCommit
	AtPostCommit = mapreduce.AtPostCommit

	ActKill        = mapreduce.ActKill
	ActSleep       = mapreduce.ActSleep
	ActFreeze      = mapreduce.ActFreeze
	ActTruncateRun = mapreduce.ActTruncateRun
	ActError       = mapreduce.ActError
)
