package mapreduce

import (
	"strings"
	"sync"
	"time"
)

// Deterministic fault injection. A FaultPlan is a list of events, each
// naming a checkpoint in a task attempt's lifecycle (worker, task,
// attempt, point) and an action to take there — kill the worker, fail
// the attempt, stall with or without heartbeats, or corrupt a committed
// run file. Every worker — goroutine or process — evaluates the plan at
// fixed checkpoints on the task execution path, never from timers or
// randomness, so a recovery scenario replays identically on every run.
// Tests drive the whole matrix of §6-style failures (worker killed
// mid-map, mid-reduce, mid-commit; task errors; stragglers; truncated
// intermediates) from plans alone.

// FaultPoint identifies a checkpoint in a task attempt's lifecycle where
// a FaultEvent can fire.
type FaultPoint int

// The checkpoints, in execution order. AtMidTask fires halfway through a
// map task's input records, or after a reduce task's first key group.
// AtPreCommit fires after compute, before any output file is written;
// AtPostCommit fires after the attempt's output files are durable but
// before its completion is reported to the coordinator.
const (
	AtTaskStart FaultPoint = iota
	AtMidTask
	AtPreCommit
	AtPostCommit
)

// FaultAction is what a triggered FaultEvent does to the worker.
type FaultAction int

// The actions. ActKill ends the worker immediately, without a report —
// a worker process exits, a goroutine worker's goroutine ends — the
// crash-stop failure the scheduler must recover from. ActSleep stalls the task for Delay while heartbeats continue (a
// straggler, triggering speculative re-execution but never lease
// expiry). ActFreeze stalls the task for Delay with heartbeats
// suspended, so the coordinator presumes the worker dead and re-runs the
// task, then receives a late duplicate completion when the freeze lifts.
// ActTruncateRun chops TruncateBytes off the attempt's last committed
// map-run file (fires at AtPostCommit), planting the torn intermediate
// that reducers must detect and the coordinator must repair by
// re-running the producing map task (a no-op on a run that stayed
// resident). ActError fails the attempt with an injected error — the
// task failure Job.MaxAttempts bounds.
const (
	ActKill FaultAction = iota
	ActSleep
	ActFreeze
	ActTruncateRun
	ActError
)

// FaultEvent matches one task-attempt checkpoint and performs an action
// there. Zero-valued selector fields are wildcards, except Worker, where
// only -1 is (worker indexes start at 0).
type FaultEvent struct {
	// Worker selects the worker by index; -1 matches any worker.
	Worker int
	// Task selects the task by ID (e.g. "myjob/map/0"); "" matches any
	// task, and a trailing '*' matches by prefix ("myjob/reduce/*").
	Task string
	// Attempt selects the coordinator-assigned attempt number; 0 matches
	// any attempt.
	Attempt int
	// Point is the lifecycle checkpoint the event fires at.
	Point FaultPoint
	// Action is what happens when the event fires.
	Action FaultAction
	// Delay is the stall duration of ActSleep and ActFreeze.
	Delay time.Duration
	// TruncateBytes is how many trailing bytes ActTruncateRun removes.
	TruncateBytes int64
}

// matches reports whether the event selects the given checkpoint.
func (e FaultEvent) matches(worker int, task string, attempt int, point FaultPoint) bool {
	if e.Point != point {
		return false
	}
	if e.Worker != -1 && e.Worker != worker {
		return false
	}
	if e.Attempt != 0 && e.Attempt != attempt {
		return false
	}
	if e.Task != "" {
		if p, ok := strings.CutSuffix(e.Task, "*"); ok {
			return strings.HasPrefix(task, p)
		}
		return e.Task == task
	}
	return true
}

// FaultPlan is a deterministic fault-injection script: each event fires
// at most once per worker, at a fixed checkpoint of the task execution
// path. A nil plan injects nothing.
type FaultPlan struct {
	// Events are evaluated in order at every checkpoint; the first
	// unfired match fires.
	Events []FaultEvent
}

// injector tracks which events of the plan one worker has fired. The
// worker performs the actions (see worker.checkpoint).
type injector struct {
	worker int
	events []FaultEvent
	mu     sync.Mutex
	fired  []bool
}

func newInjector(worker int, plan *FaultPlan) *injector {
	if plan == nil {
		return nil
	}
	return &injector{worker: worker, events: plan.Events, fired: make([]bool, len(plan.Events))}
}

// match marks and returns the first unfired event selecting this
// checkpoint, or nil.
func (in *injector) match(task string, attempt int, point FaultPoint) *FaultEvent {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.events {
		if !in.fired[i] && in.events[i].matches(in.worker, task, attempt, point) {
			in.fired[i] = true
			return &in.events[i]
		}
	}
	return nil
}

// faultPointName names a FaultPoint for span events.
func faultPointName(p FaultPoint) string {
	switch p {
	case AtTaskStart:
		return "task-start"
	case AtMidTask:
		return "mid-task"
	case AtPreCommit:
		return "pre-commit"
	case AtPostCommit:
		return "post-commit"
	}
	return "unknown"
}

// faultActionName names a FaultAction for span events.
func faultActionName(a FaultAction) string {
	switch a {
	case ActKill:
		return "kill"
	case ActSleep:
		return "sleep"
	case ActFreeze:
		return "freeze"
	case ActTruncateRun:
		return "truncate-run"
	case ActError:
		return "error"
	}
	return "unknown"
}
