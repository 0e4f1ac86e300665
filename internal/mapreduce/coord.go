package mapreduce

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"knnjoin/internal/dfs"
	"knnjoin/internal/obs"
)

// The scheduler: job/task state, lease bookkeeping, and every retry,
// re-dispatch and commit decision of the engine. Workers — goroutines
// through a localLink, processes through /poll, /done and /heartbeat —
// only ask it for a task and tell it how the task went. All state is
// guarded by Cluster.mu; nothing here does I/O under the lock — output
// assembly happens on the job's driving goroutine after the last task
// commits.
//
// Task lifecycle: pending → running → done. A running task carries one
// or more active attempts (more than one only under speculation). An
// attempt disappears by reporting completion, by its worker exiting, or
// by missing heartbeats past its lease — in the last two cases the task
// returns to pending and is re-dispatched. Completion is a commit gate:
// the first successful report wins the task, later reports (a
// presumed-dead worker coming back, or the loser of a speculative race)
// are acknowledged and discarded, which is what makes task attempts
// exactly-once in effect even though execution is at-least-once — and
// why only committed attempts reach the job's output and statistics.

// Task states of the scheduler.
const (
	taskPending = iota
	taskRunning
	taskDone
)

// attemptRec is one in-flight attempt's lease record. A zero deadline
// means the attempt carries no lease.
type attemptRec struct {
	attempt  int
	worker   int
	started  time.Time
	deadline time.Time
}

// taskState is the scheduler's state for one map or reduce task.
type taskState struct {
	phase    string
	index    int
	state    int
	attempts int // attempts dispatched so far
	failures int // error-reported attempts (not lease losses)
	active   []attemptRec

	// done is the committed attempt's report, valid once state == taskDone.
	done *completion
}

// coordJob is the scheduler's state for one running job.
type coordJob struct {
	id          int64
	job         *Job
	splits      []dfs.Split
	nReduce     int
	mapOnly     bool
	maxAttempts int

	// local jobs run on goroutine workers started for the job; the
	// others on the cluster's worker processes.
	local bool
	live  int // workers still serving the job

	dir        string // where run files go; "" keeps every run resident
	mem        *memAccount
	fanIn      int
	mergeShare int64
	lease      time.Duration // zero: attempts carry no lease

	maps        []taskState
	reduces     []taskState
	mapsDone    int
	reducesDone int

	// runProducer maps a committed run file path to the map task that
	// produced it, so a reducer reporting a damaged run names the task
	// to re-execute.
	runProducer map[string]int

	redispatches  int
	maxRedispatch int

	err       error
	completed bool
	finished  chan struct{}

	start     time.Time
	mapDoneAt time.Time
	stats     JobStats

	// span is the job span (nil when tracing is off); scheduling
	// decisions — lease losses, worker exits, speculation, duplicate
	// discards, bad-run repairs — land on it as events.
	span *obs.Span
}

// task returns the addressed task, or nil.
func (j *coordJob) task(phase string, index int) *taskState {
	var ts []taskState
	switch phase {
	case "map":
		ts = j.maps
	case "reduce":
		ts = j.reduces
	default:
		return nil
	}
	if index < 0 || index >= len(ts) {
		return nil
	}
	return &ts[index]
}

// taskID names a task of the job, e.g. "knn/map/3".
func (j *coordJob) taskID(t *taskState) string {
	return fmt.Sprintf("%s/%s/%d", j.job.Name, t.phase, t.index)
}

// finishLocked ends the job exactly once. Caller holds c.mu.
func (c *Cluster) finishLocked(j *coordJob, err error) {
	if j.completed {
		return
	}
	j.completed = true
	j.err = err
	close(j.finished)
	c.wake.Broadcast()
}

// redispatchedLocked counts one failure-forced re-execution. A job that
// keeps losing attempts (e.g. a fault plan killing every worker that
// touches a task) fails once the budget is exhausted rather than
// spinning forever. Caller holds c.mu.
func (c *Cluster) redispatchedLocked(j *coordJob, t *taskState, cause string) {
	j.stats.ReexecutedAttempts++
	c.mReexec.Inc()
	j.redispatches++
	if j.redispatches > j.maxRedispatch {
		c.finishLocked(j, fmt.Errorf("mapreduce: job %q: %d re-dispatches, last of task %s/%d (%s) — giving up",
			j.job.Name, j.redispatches, t.phase, t.index, cause))
	}
}

// reclaimLocked drops the running attempts lost reports true for and
// returns tasks left without an attempt to pending, for re-dispatch.
// Caller holds c.mu.
func (c *Cluster) reclaimLocked(j *coordJob, event string, lost func(attemptRec) bool) {
	for _, tasks := range [][]taskState{j.maps, j.reduces} {
		for i := range tasks {
			t := &tasks[i]
			if t.state != taskRunning {
				continue
			}
			kept := t.active[:0]
			for _, a := range t.active {
				if !lost(a) {
					kept = append(kept, a)
				}
			}
			if len(kept) == len(t.active) {
				continue
			}
			t.active = kept
			if len(t.active) == 0 {
				t.state = taskPending
				j.span.Event(event, "task", j.taskID(t))
				c.redispatchedLocked(j, t, event)
				if j.completed {
					return
				}
			}
		}
	}
	c.wake.Broadcast()
}

// expireLeasesLocked reclaims attempts whose lease lapsed.
func (c *Cluster) expireLeasesLocked(j *coordJob, now time.Time) {
	if j.lease > 0 && !j.completed {
		c.reclaimLocked(j, "lease-expired", func(a attemptRec) bool { return !a.deadline.After(now) })
	}
}

// workerExitedLocked reclaims a gone worker's attempts at once — a
// worker that exited is seen, not waited out — and fails the job when
// nobody is left to run it. Caller holds c.mu.
func (c *Cluster) workerExitedLocked(j *coordJob, worker int) {
	if j.completed {
		return
	}
	j.live--
	c.reclaimLocked(j, "worker-exit", func(a attemptRec) bool { return a.worker == worker })
	if j.live == 0 {
		c.finishLocked(j, fmt.Errorf("mapreduce: job %q: all workers exited%s", j.job.Name, c.exitReport(j)))
	}
}

// assignLocked picks the next attempt for worker: a pending map task
// first, then — once every map has committed — a pending reduce task,
// then (when configured) a speculative backup attempt against the
// longest-running straggler. Nil means nothing to do right now. Caller
// holds c.mu.
func (c *Cluster) assignLocked(j *coordJob, worker int, now time.Time) *assignment {
	c.expireLeasesLocked(j, now)
	if j.completed {
		return nil
	}
	for i := range j.maps {
		if t := &j.maps[i]; t.state == taskPending {
			return c.dispatchLocked(j, t, worker, now)
		}
	}
	cands := j.maps
	if j.mapsDone == len(j.maps) {
		for i := range j.reduces {
			if t := &j.reduces[i]; t.state == taskPending {
				return c.dispatchLocked(j, t, worker, now)
			}
		}
		cands = j.reduces
	}
	if c.cfg.SpeculativeAfter > 0 {
		for i := range cands {
			t := &cands[i]
			// Back up a task only when its sole attempt has been running
			// past the speculation threshold on some other worker.
			if t.state == taskRunning && len(t.active) == 1 &&
				t.active[0].worker != worker &&
				now.Sub(t.active[0].started) >= c.cfg.SpeculativeAfter {
				j.span.Event("speculative-attempt",
					"task", j.taskID(t),
					"worker", fmt.Sprint(worker))
				j.stats.SpeculativeAttempts++
				c.mSpec.Inc()
				return c.dispatchLocked(j, t, worker, now)
			}
		}
	}
	return nil
}

// dispatchLocked hands a new attempt of t to worker. Caller holds c.mu.
func (c *Cluster) dispatchLocked(j *coordJob, t *taskState, worker int, now time.Time) *assignment {
	t.attempts++
	att := t.attempts
	t.state = taskRunning
	rec := attemptRec{attempt: att, worker: worker, started: now}
	if j.lease > 0 {
		rec.deadline = now.Add(j.lease)
	}
	t.active = append(t.active, rec)
	a := &assignment{
		JobID: j.id, JobName: j.job.Name, Kind: j.job.Kind, Spec: j.job.Spec,
		Phase: t.phase, Index: t.index, Attempt: att,
		NumReducers: j.nReduce, MapOnly: j.mapOnly,
		RunDir: j.dir, FanIn: j.fanIn, MergeShare: j.mergeShare,
		job: j.job, mem: j.mem,
	}
	if !j.local {
		a.RunDir = filepath.Join(j.dir, fmt.Sprintf("%s%d-a%d-w%d", t.phase, t.index, att, worker))
	}
	ctx := j.span.Context()
	a.TraceID, a.SpanParent = ctx.TraceID, ctx.SpanID
	if att > 1 {
		j.span.Event("re-dispatch",
			"task", j.taskID(t),
			"attempt", fmt.Sprint(att),
			"worker", fmt.Sprint(worker))
	}
	if t.phase == "map" {
		a.Split = &j.splits[t.index]
		return a
	}
	// The fan-in list is derived at dispatch time from currently
	// committed map runs, so an attempt dispatched after a bad-run
	// repair sees the re-executed producer's fresh runs.
	for mi := range j.maps {
		if run := j.maps[mi].done.Runs[t.index]; run.records() > 0 {
			a.Runs = append(a.Runs, run)
		}
	}
	return a
}

// completeLocked processes one finished attempt's report and says
// whether it was committed. Caller holds c.mu.
func (c *Cluster) completeLocked(j *coordJob, comp *completion) bool {
	t := j.task(comp.Phase, comp.Index)
	if j.completed || t == nil {
		return false
	}
	for i, a := range t.active {
		if a.attempt == comp.Attempt {
			t.active = append(t.active[:i], t.active[i+1:]...)
			break
		}
	}
	if t.state == taskDone {
		// A speculative loser or a presumed-dead worker coming back. The
		// first commit won; whatever this one has to say is discarded.
		if comp.err == nil {
			j.span.Event("duplicate-discarded",
				"task", j.taskID(t),
				"attempt", fmt.Sprint(comp.Attempt),
				"worker", fmt.Sprint(comp.Worker))
		}
		return false
	}
	if comp.err != nil {
		if len(comp.BadRuns) > 0 {
			// Damaged intermediates are an environment failure, not a task
			// failure: un-commit the producing map tasks so they re-execute,
			// and retry this task without charging its failure budget.
			for _, path := range comp.BadRuns {
				mi, ok := j.runProducer[path]
				if !ok {
					continue
				}
				m := &j.maps[mi]
				for _, run := range m.done.Runs {
					if run.File != nil {
						delete(j.runProducer, run.File.Path)
					}
				}
				m.done = nil
				m.state = taskPending
				j.mapsDone--
				j.span.Event("bad-run-repair", "path", path, "producer", j.taskID(m))
				c.redispatchedLocked(j, m, comp.Err)
			}
			c.redispatchedLocked(j, t, comp.Err)
		} else if t.failures++; t.failures >= j.maxAttempts {
			c.finishLocked(j, fmt.Errorf("mapreduce: task %s failed after %d attempts: %w",
				j.taskID(t), t.failures, comp.err))
		}
		if t.state == taskRunning && len(t.active) == 0 {
			t.state = taskPending
		}
		c.wake.Broadcast()
		return false
	}
	t.state = taskDone
	t.active = nil
	t.done = comp
	if !j.local {
		j.stats.WorkerTasks++
		c.mTasks.Inc()
	}
	if comp.Phase == "map" {
		for _, run := range comp.Runs {
			if run.File != nil {
				j.runProducer[run.File.Path] = comp.Index
			}
		}
		j.mapsDone++
		if j.mapsDone == len(j.maps) && j.mapDoneAt.IsZero() {
			j.mapDoneAt = time.Now()
		}
	} else {
		j.reducesDone++
	}
	if j.mapsDone == len(j.maps) && j.reducesDone == len(j.reduces) {
		c.finishLocked(j, nil)
	}
	c.wake.Broadcast()
	return true
}

// heartbeatLocked renews an attempt's lease and says whether the
// attempt is still wanted. Caller holds c.mu.
func (c *Cluster) heartbeatLocked(j *coordJob, h *heartbeatMsg) bool {
	t := j.task(h.Phase, h.Index)
	if j.completed || t == nil || t.state != taskRunning {
		return false
	}
	for i := range t.active {
		if t.active[i].attempt == h.Attempt {
			t.active[i].deadline = time.Now().Add(j.lease)
			return true
		}
	}
	return false
}

// localLink connects a goroutine worker to the scheduler: direct calls
// under the lock, a wake-up instead of a poll interval.
type localLink struct {
	c *Cluster
	j *coordJob
}

func (l localLink) next(worker int) *assignment {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	for !l.j.completed {
		if a := l.c.assignLocked(l.j, worker, time.Now()); a != nil {
			return a
		}
		if !l.j.completed {
			l.c.wake.Wait()
		}
	}
	return nil
}

func (l localLink) report(comp *completion) (accepted, delivered bool) {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	return l.c.completeLocked(l.j, comp), true
}

func (l localLink) heartbeat(h *heartbeatMsg) {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	l.c.heartbeatLocked(l.j, h)
}

// newCoordJob builds the task table of one job: every split a pending
// map task, and NumReducers (default: one per node) pending reduce
// tasks unless the job is map-only.
func (c *Cluster) newCoordJob(job *Job, splits []dfs.Split) *coordJob {
	j := &coordJob{
		job: job, splits: splits, nReduce: job.NumReducers, mapOnly: job.Reduce == nil,
		maxAttempts: job.MaxAttempts,
		local:       job.Kind == "" || c.procs == nil,
		mem:         &memAccount{limit: c.cfg.Engine.MemLimit},
		runProducer: make(map[string]int),
		finished:    make(chan struct{}),
	}
	if j.nReduce <= 0 {
		j.nReduce = c.nodes
	}
	if j.maxAttempts <= 0 {
		j.maxAttempts = 1
	}
	j.fanIn, j.mergeShare = c.cfg.Engine.mergeBudget(c.nodes)
	j.maps = make([]taskState, len(splits))
	for i := range j.maps {
		j.maps[i] = taskState{phase: "map", index: i}
	}
	if !j.mapOnly {
		j.reduces = make([]taskState, j.nReduce)
		for i := range j.reduces {
			j.reduces[i] = taskState{phase: "reduce", index: i}
		}
	}
	j.maxRedispatch = 16 + 8*(len(j.maps)+len(j.reduces))
	j.stats = JobStats{Job: job.Name, MapTasks: len(j.maps), ReduceTasks: len(j.reduces)}
	return j
}

// runJob executes one job: build the task table, put workers on it, wait
// for the commit of every task (watchdogging leases), then assemble the
// output and statistics from the committed attempts — and only from
// those, which is why job output is byte-identical no matter which
// workers ran it or how many attempts died or duplicated along the way.
func (c *Cluster) runJob(job *Job, splits []dfs.Split) (*JobStats, error) {
	j := c.newCoordJob(job, splits)

	// Run files: worker processes exchange everything through the shared
	// scratch directory; goroutine workers need one only to spill runs.
	root := c.cfg.Engine.SpillDir
	if !j.local {
		root = c.procs.dir
	} else if j.mapOnly {
		root = ""
	}
	if root != "" {
		dir, err := os.MkdirTemp(root, "job-*")
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %q: spill dir: %w", job.Name, err)
		}
		j.dir = dir
		defer os.RemoveAll(dir)
	}

	c.mJobs.Inc()
	j.span = c.tracer.StartSpan("job:"+job.Name, c.rootSpan.Context())
	j.span.SetAttr("kind", job.Kind)
	j.span.SetAttr("maps", fmt.Sprint(len(j.maps)))
	j.span.SetAttr("reduces", fmt.Sprint(len(j.reduces)))
	defer j.span.End()

	j.start = time.Now()
	c.mu.Lock()
	c.jobSeq++
	j.id = c.jobSeq
	switch {
	case c.closed:
		c.finishLocked(j, fmt.Errorf("mapreduce: job %q: cluster closed", job.Name))
	case j.local:
		j.live = c.nodes
		if c.cfg.Faults != nil {
			j.lease = c.lease()
		}
	case c.cur != nil:
		c.finishLocked(j, fmt.Errorf("mapreduce: job %q: cluster already running job %q", job.Name, c.cur.job.Name))
	default:
		c.cur = j
		j.live, j.lease = c.procs.live, c.lease()
		if j.live == 0 {
			c.finishLocked(j, fmt.Errorf("mapreduce: job %q: all %d worker processes exited%s", job.Name, c.cfg.Workers, c.exitReport(j)))
		}
	}
	if len(j.maps)+len(j.reduces) == 0 {
		c.finishLocked(j, nil)
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	if j.local {
		for i := 0; i < c.nodes; i++ {
			w := &worker{index: i, link: localLink{c, j}, inj: c.injectors[i], tracer: c.tracers[i],
				kill: runtime.Goexit, quit: j.finished, hbEvery: j.lease / 4}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { // also how an ActKill'd worker is noticed
					c.mu.Lock()
					c.workerExitedLocked(j, w.index)
					c.mu.Unlock()
				}()
				w.loop()
			}()
		}
	}

	// Tasks commit through the workers' reports; the watchdog expires
	// leases even when no worker is asking, and wakes idle goroutine
	// workers to reconsider speculation.
	var tick <-chan time.Time
	if j.lease > 0 || c.cfg.SpeculativeAfter > 0 {
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		tick = t.C
	}
	for running := true; running; {
		select {
		case <-j.finished:
			running = false
		case now := <-tick:
			c.mu.Lock()
			c.expireLeasesLocked(j, now)
			c.wake.Broadcast()
			c.mu.Unlock()
		}
	}
	wg.Wait()
	end := time.Now()
	c.mu.Lock()
	if c.cur == j {
		c.cur = nil
	}
	c.mu.Unlock()
	j.span.SetAttr("reexecuted", fmt.Sprint(j.stats.ReexecutedAttempts))
	j.span.SetAttr("speculative", fmt.Sprint(j.stats.SpeculativeAttempts))
	if j.err != nil {
		j.span.SetAttr("outcome", "error")
		j.span.SetAttr("err", j.err.Error())
		return nil, j.err
	}
	j.span.SetAttr("outcome", "ok")
	if j.mapDoneAt.IsZero() {
		j.mapDoneAt = end
	}
	j.stats.MapWall = j.mapDoneAt.Sub(j.start)
	j.stats.ReduceWall = end.Sub(j.mapDoneAt)
	return c.assemble(j)
}

// assemble concatenates the committed outputs — map tasks in index
// order for map-only jobs, reduce tasks in index order otherwise —
// writes the job output, and folds the committed attempts' metrics into
// JobStats: the shuffle volume is every key and value byte of the
// committed runs, the paper's "shuffling cost". The output list is
// sized once from the committed record counts and handed to the store,
// which keeps it (dfs.Store.Write).
func (c *Cluster) assemble(j *coordJob) (*JobStats, error) {
	stats := &j.stats
	counters := NewCounterSet()
	fold := func(tasks []taskState, each func(*completion)) ([]dfs.Record, int64, error) {
		var n int64
		for i := range tasks {
			if d := tasks[i].done; d.OutFile != nil {
				n += d.OutFile.Records
			} else {
				n += int64(len(d.out))
			}
		}
		out := make([]dfs.Record, 0, n)
		work := make([]int64, len(tasks))
		for i := range tasks {
			d := tasks[i].done
			if d.OutFile != nil {
				var err error
				if out, err = appendFramedFile(out, d.OutFile.Path, d.OutFile.Records); err != nil {
					return nil, 0, fmt.Errorf("mapreduce: job %q: %w", j.job.Name, err)
				}
			} else {
				out = append(out, d.out...)
			}
			work[i] = d.Work
			stats.SpilledRuns += d.SpilledRuns
			stats.SpilledBytes += d.SpilledBytes
			for name, v := range d.Counters { //lint:allow maprange: integer counter merge, CounterSet.Add is commutative
				counters.Add(name, v)
			}
			each(d)
		}
		return out, makespan(work, c.nodes), nil
	}

	if !j.mapOnly {
		stats.ReduceInputRecords = make([]int64, j.nReduce)
	}
	out, span, err := fold(j.maps, func(d *completion) {
		stats.MapInputRecords += d.Records
		for r, run := range d.Runs {
			if n := run.records(); n > 0 {
				stats.ShuffleBytes += run.shuffleBytes()
				stats.ShuffleRecords += n
				stats.ReduceInputRecords[r] += n
			}
		}
	})
	if err != nil {
		return nil, err
	}
	stats.SimMapMakespan = span
	if !j.mapOnly {
		out, span, err = fold(j.reduces, func(d *completion) { stats.ReduceGroups += d.Groups })
		if err != nil {
			return nil, err
		}
		stats.SimReduceMakespan = span
	}
	if err := c.fs.Write(j.job.Output, out); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", j.job.Name, err)
	}
	stats.OutputRecords = int64(len(out))
	stats.PeakResidentBytes = j.mem.peak.Load()
	stats.Counters = counters.Snapshot()
	c.mShufB.Add(stats.ShuffleBytes)
	c.mSpillB.Add(stats.SpilledBytes)
	return stats, nil
}
