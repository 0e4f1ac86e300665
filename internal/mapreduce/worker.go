package mapreduce

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"knnjoin/internal/dfs"
	"knnjoin/internal/obs"
	"knnjoin/internal/proc"
)

// link is how a worker reaches the scheduler. Goroutine workers call it
// under the cluster's lock (localLink, coord.go); worker processes POST
// JSON to the coordinator (httpLink).
type link interface {
	// next blocks until there is a task for the worker and returns it,
	// or nil when the worker should stop.
	next(worker int) *assignment
	// report delivers a finished attempt. delivered is false when the
	// report was lost on the way.
	report(c *completion) (accepted, delivered bool)
	// heartbeat renews the attempt's lease.
	heartbeat(h *heartbeatMsg)
}

// worker is one task executor: it asks the scheduler for a task, runs
// it, reports the outcome, and asks again. A cluster runs Nodes of them
// as goroutines for the length of a job, and a distributed cluster
// additionally keeps Config.Workers of them as processes; both run
// the same loop and the same task body over a different link.
type worker struct {
	index int
	link  link
	inj   *injector

	// kill ends the worker without a report (ActKill); quit, when it
	// closes, cuts injected stalls short — a goroutine worker must not
	// outlive its job.
	kill func()
	quit <-chan struct{}

	// hbEvery is the heartbeat period; zero sends none (the attempt
	// carries no lease). ActFreeze pauses the heartbeats.
	hbEvery  time.Duration
	hbPaused atomic.Bool

	// tracer records task-attempt spans (nil when tracing is off);
	// curSpan is the span of the attempt currently executing, kept
	// where checkpoint can reach it before a kill.
	tracer  *obs.Tracer
	curSpan *obs.Span

	// process marks a worker process: it rebuilds jobs from the kind
	// registry — the cluster runs them one at a time, so caching one
	// suffices — and hands its output over as a file.
	process     bool
	cachedJobID int64
	cachedJob   *Job
}

// loop is the worker's life: next task → execute → report.
func (w *worker) loop() {
	for a := w.link.next(w.index); a != nil; a = w.link.next(w.index) {
		w.runTask(a)
	}
}

// runTask executes one assignment end to end: heartbeats while working,
// then reports the completion. The attempt runs under its own span,
// parented to the scheduler's job span via the assignment's trace
// context; the span's outcome attr distinguishes the winning commit
// ("committed") from speculative losers and late duplicates
// ("discarded"), failures ("error"), and — via checkpoint — attempts
// that never got to report ("killed").
func (w *worker) runTask(a *assignment) {
	span := w.tracer.StartSpan("task",
		obs.SpanContext{TraceID: a.TraceID, SpanID: a.SpanParent})
	span.SetAttr("task", a.taskID())
	span.SetAttr("attempt", fmt.Sprint(a.Attempt))
	span.SetAttr("worker", fmt.Sprint(w.index))
	w.curSpan = span
	stop := make(chan struct{})
	// Deferred, not inline: an ActKill on a goroutine worker unwinds
	// through here.
	defer func() {
		close(stop)
		w.curSpan = nil
		span.End()
		// Flush per task: worker processes can be torn down without a
		// graceful shutdown, and a buffered span would vanish with them.
		w.tracer.Flush()
	}()
	if w.hbEvery > 0 {
		go w.heartbeatLoop(a, stop)
	}

	comp := &completion{Worker: w.index, JobID: a.JobID, Phase: a.Phase, Index: a.Index, Attempt: a.Attempt}
	if comp.err = w.execute(a, comp); comp.err != nil {
		comp.Err = comp.err.Error()
		span.SetAttr("outcome", "error")
		span.SetAttr("err", comp.Err)
	}
	accepted, delivered := w.link.report(comp)
	if comp.err == nil {
		outcome := "discarded"
		if !delivered {
			outcome = "unreported"
		} else if accepted {
			outcome = "committed"
		}
		span.SetAttr("outcome", outcome)
	}
}

// heartbeatLoop renews the attempt's lease until the task finishes.
// ActFreeze pauses it, simulating a worker presumed dead.
func (w *worker) heartbeatLoop(a *assignment, stop chan struct{}) {
	tick := time.NewTicker(w.hbEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if !w.hbPaused.Load() {
				w.link.heartbeat(&heartbeatMsg{Worker: w.index, JobID: a.JobID,
					Phase: a.Phase, Index: a.Index, Attempt: a.Attempt})
			}
		}
	}
}

// checkpoint fires the first unfired fault event matching this point of
// the attempt, recording it on the attempt's span first — for a kill
// that includes stamping the outcome and flushing, since a process dies
// inside this call. runs are what ActTruncateRun may damage. Only
// ActError makes it return an error.
func (w *worker) checkpoint(a *assignment, point FaultPoint, runs []runData) error {
	if w.inj == nil {
		return nil
	}
	ev := w.inj.match(a.taskID(), a.Attempt, point)
	if ev == nil {
		return nil
	}
	w.curSpan.Event("fault-"+faultActionName(ev.Action),
		"task", a.taskID(),
		"attempt", fmt.Sprint(a.Attempt),
		"point", faultPointName(point))
	switch ev.Action {
	case ActKill:
		w.curSpan.SetAttr("outcome", "killed")
		w.curSpan.End()
		w.tracer.Flush()
		w.kill()
	case ActSleep:
		w.stall(ev.Delay)
	case ActFreeze:
		w.hbPaused.Store(true)
		w.stall(ev.Delay)
		w.hbPaused.Store(false)
	case ActTruncateRun:
		for r := len(runs) - 1; r >= 0; r-- {
			if rf := runs[r].File; rf != nil {
				truncateTail(rf.Path, ev.TruncateBytes)
				break
			}
		}
	case ActError:
		return fmt.Errorf("mapreduce: injected fault at %s", faultPointName(point))
	}
	return nil
}

// stall blocks for d, or until the worker's job is over.
func (w *worker) stall(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-w.quit:
	}
}

// taskID names the attempt's task, e.g. "knn/map/3".
func (a *assignment) taskID() string {
	if a.id == "" {
		a.id = fmt.Sprintf("%s/%s/%d", a.JobName, a.Phase, a.Index)
	}
	return a.id
}

// execute is the task body — with mapTask and reduceTask the one place a
// job's functions run. It fills comp with what the attempt produced; a
// returned error fails the attempt.
func (w *worker) execute(a *assignment, comp *completion) error {
	if w.process {
		if err := w.localize(a); err != nil {
			return err
		}
	}
	ctx := &TaskContext{JobName: a.JobName, TaskID: a.taskID(), counters: NewCounterSet()}
	rs := &runState{dir: a.RunDir, fanIn: a.FanIn, share: a.MergeShare, mem: a.mem}
	defer func() {
		comp.Work = ctx.work
		comp.SpilledRuns, comp.SpilledBytes = rs.spilledRuns, rs.spilledBytes
		comp.Counters = ctx.counters.Snapshot()
	}()
	if err := w.checkpoint(a, AtTaskStart, nil); err != nil {
		return err
	}
	var out []dfs.Record
	var err error
	if a.Phase == "map" {
		out, err = w.mapTask(a, ctx, rs, comp)
		if !a.MapOnly {
			return err // committed as runs
		}
	} else {
		out, err = w.reduceTask(a, ctx, rs, comp)
	}
	if err != nil {
		return err
	}
	if err := w.checkpoint(a, AtPreCommit, nil); err != nil {
		return err
	}
	if w.process {
		// A worker process hands its output over as a file.
		path := filepath.Join(a.RunDir, "out")
		if err := writeFramedFile(path, out); err != nil {
			return err
		}
		comp.OutFile = &runFile{Path: path, Records: int64(len(out))}
	} else {
		comp.out = out
	}
	return w.checkpoint(a, AtPostCommit, nil)
}

// mapTask runs one map attempt: load the split, map every record into
// per-reducer buckets, then either sort and commit the buckets as runs
// (resident or spilled, see runState.retainOrSpill) or, for a
// map-only job, return the bucket-concatenated values as the task's
// output.
func (w *worker) mapTask(a *assignment, ctx *TaskContext, rs *runState, comp *completion) ([]dfs.Record, error) {
	job := a.job
	records, err := a.Split.Load()
	if err != nil {
		return nil, fmt.Errorf("map input: %w", err)
	}
	n := a.NumReducers
	partition := resolvePartition(job)
	runs := make([]runData, n)
	emit := func(key, value []byte) {
		r := 0
		if n > 1 {
			r = partition(key, n)
			if r < 0 || r >= n {
				panic(fmt.Sprintf("mapreduce: partition function returned %d for %d reducers", r, n))
			}
		}
		runs[r].kvs = append(runs[r].kvs, KV{Key: key, Value: value})
	}
	for i, rec := range records {
		if i == len(records)/2 {
			if err := w.checkpoint(a, AtMidTask, nil); err != nil {
				return nil, err
			}
		}
		if err := job.Map(ctx, rec, emit); err != nil {
			return nil, fmt.Errorf("map record: %w", err)
		}
	}
	comp.Records = int64(len(records))
	if a.MapOnly {
		// No sort: the output contract is emission order within each
		// bucket, values only (the key is advisory for map-only jobs).
		total := 0
		for _, run := range runs {
			total += len(run.kvs)
		}
		out := make([]dfs.Record, 0, total)
		for _, run := range runs {
			for _, kv := range run.kvs {
				out = append(out, dfs.Record(kv.Value))
			}
		}
		return out, nil
	}
	// Map-side sort: turn each bucket into a sorted run (the spill sort
	// of a real Hadoop map task).
	for r := range runs {
		sortRun(runs[r].kvs)
	}
	if err := w.checkpoint(a, AtPreCommit, nil); err != nil {
		return nil, err
	}
	if err := rs.retainOrSpill(runs); err != nil {
		return nil, err
	}
	comp.Runs = runs
	return nil, w.checkpoint(a, AtPostCommit, runs)
}

// sortRun orders kvs by key bytes. The sort is unstable (a stable
// sort's merge rotations dominate the shuffle cost on duplicate-heavy
// runs) but deterministic: ties land in an unspecified yet reproducible
// order, so jobs stay deterministic per configuration; a job that needs
// a defined value order puts it in a composite key's suffix.
func sortRun(kvs []KV) {
	slices.SortFunc(kvs, func(a, b KV) int { return bytes.Compare(a.Key, b.Key) })
}

// reduceTask runs one reduce attempt: k-way-merge the committed runs it
// was assigned (map-task order, the merge's tie-breaking seq), stream
// the key groups through the reduce function, and return the emitted
// records. A truncated or missing input run fails the attempt and is
// named in comp.BadRuns so the scheduler re-executes its producer.
func (w *worker) reduceTask(a *assignment, ctx *TaskContext, rs *runState, comp *completion) ([]dfs.Record, error) {
	job := a.job
	reportBad := func(err error) error {
		var bad *runBadError
		if errors.As(err, &bad) {
			for _, run := range a.Runs {
				if run.File != nil && run.File.Path == bad.path {
					comp.BadRuns = append(comp.BadRuns, bad.path)
				}
			}
		}
		return err
	}
	// Runs are immutable inputs, so a retry simply rebuilds the merge —
	// reopening spilled files from scratch. When the reducer received
	// more runs than the merge fan-in admits, contiguous groups are first
	// merged into intermediate run files (bounding the open read-ahead
	// buffers), which cannot change the merged order.
	runs, err := reduceFanIn(rs, a.Runs)
	if err != nil {
		return nil, reportBad(err)
	}
	cursors := openRuns(rs, runs, rs.bufSize(spilledFiles(runs)))
	defer func() {
		for _, cu := range cursors {
			cu.close()
		}
	}()
	m := newMerger(cursors)
	var out []dfs.Record
	emit := func(_, value []byte) {
		out = append(out, dfs.Record(value))
	}
	reduce := job.Reduce
	if w.inj != nil {
		// AtMidTask fires between the first key group and the second.
		var groups int64
		reduce = func(ctx *TaskContext, key []byte, values *Values, emit Emit) error {
			if groups++; groups == 2 {
				if err := w.checkpoint(a, AtMidTask, nil); err != nil {
					return err
				}
			}
			return job.Reduce(ctx, key, values, emit)
		}
	}
	if comp.Groups, err = streamGroups(ctx, reduce, m, job.GroupKeyPrefix, emit); err != nil {
		return nil, reportBad(err)
	}
	// A merge source that died mid-stream (a truncated or unreadable run
	// file) silently ended the stream early — the attempt's output is
	// incomplete and must be discarded, not committed.
	if err := m.failure(); err != nil {
		return nil, reportBad(err)
	}
	return out, nil
}

// localize fills in what an assignment decoded off the wire lacks: the
// job, rebuilt from the kind registry and cached per job; a private
// memory account; the attempt's directory. A map task's split arrives
// as the location of its records, which Split.Load reads again on every
// attempt.
func (w *worker) localize(a *assignment) error {
	if w.cachedJob == nil || w.cachedJobID != a.JobID {
		job, err := buildKindJob(a.Kind, a.Spec)
		if err != nil {
			return err
		}
		w.cachedJobID, w.cachedJob = a.JobID, job
	}
	a.job, a.mem = w.cachedJob, &memAccount{}
	return os.MkdirAll(a.RunDir, 0o755)
}

// workerEnv carries a workerConfig (JSON) into a spawned worker process.
// Worker processes are re-executed copies of the parent binary, so the
// same job-kind registrations are linked in; RunWorkerIfSpawned turns
// the re-exec into a worker loop before the program's own main logic.
const workerEnv = "KNNJOIN_MR_WORKER"

// RunWorkerIfSpawned checks whether this process was spawned as a
// MapReduce worker and, if so, runs the worker loop and exits — it never
// returns in that case. Call it first thing in main (and in TestMain for
// test binaries that use a distributed cluster); it is a no-op in
// ordinary processes.
func RunWorkerIfSpawned() { proc.IfSpawned(workerEnv, runWorker) }

// runWorker is a worker process's main: the shared loop over an httpLink.
func runWorker(cfg workerConfig) error {
	l := &httpLink{url: cfg.URL, client: &http.Client{}}
	w := &worker{
		index: cfg.Index, link: l, inj: newInjector(cfg.Index, cfg.Faults),
		kill:    func() { os.Exit(proc.FaultKillExitCode) },
		hbEvery: time.Duration(cfg.HeartbeatMs) * time.Millisecond,
		process: true,
	}
	if cfg.TraceDir != "" {
		tr, err := obs.NewTracer(cfg.TraceDir, fmt.Sprintf("worker-%d", cfg.Index))
		if err != nil {
			return fmt.Errorf("mapreduce worker %d: tracer: %w", cfg.Index, err)
		}
		w.tracer = tr
		defer tr.Close()
	}
	w.loop()
	return nil
}

// httpLink is a worker process's link: JSON POSTs to the coordinator.
type httpLink struct {
	url    string
	client *http.Client
}

// post sends one JSON request to the coordinator and decodes the reply.
func (l *httpLink) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := l.client.Post(l.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("mapreduce worker: %s: HTTP %d", path, r.StatusCode)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// next polls until the coordinator hands out a task or says to shut down.
func (l *httpLink) next(worker int) *assignment {
	for {
		var resp pollResponse
		if err := l.post("/poll", pollRequest{Worker: worker}, &resp); err != nil {
			// The coordinator lives as long as the worker's parent, and
			// the worker exits with its parent (package proc): retry.
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if resp.Shutdown {
			return nil
		}
		if resp.Task != nil {
			return resp.Task
		}
		wait := resp.WaitMs
		if wait <= 0 {
			wait = 10
		}
		time.Sleep(time.Duration(wait) * time.Millisecond)
	}
}

// report posts the completion, retrying the post itself — the report
// must not be lost to a transient connection error when the work is
// durable.
func (l *httpLink) report(c *completion) (accepted, delivered bool) {
	for i := 0; i < 3; i++ {
		var resp completionResponse
		if err := l.post("/done", c, &resp); err == nil {
			return resp.Accepted, true
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false, false
}

// heartbeat is best-effort; an abandoned attempt just wastes work.
func (l *httpLink) heartbeat(h *heartbeatMsg) {
	var resp heartbeatResponse
	l.post("/heartbeat", h, &resp)
}

// truncateTail chops n trailing bytes off the file (fault injection).
func truncateTail(path string, n int64) {
	if info, err := os.Stat(path); err == nil {
		size := info.Size() - n
		if size < 0 {
			size = 0
		}
		os.Truncate(path, size)
	}
}

// writeFramedFile commits records to path as uvarint-framed records,
// written to a temporary name and renamed into place — a file that
// exists under its final name is always complete.
func writeFramedFile(path string, records []dfs.Record) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, spillBufSize)
	for _, rec := range records {
		if err = dfs.WriteFrame(w, rec); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err != nil {
		os.Remove(path + ".tmp")
		return fmt.Errorf("mapreduce: output file %s: %w", path, err)
	}
	return nil
}

// appendFramedFile appends the records of a writeFramedFile-committed
// file to out, verifying the expected record count.
func appendFramedFile(out []dfs.Record, path string, records int64) ([]dfs.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, spillBufSize)
	for i := int64(0); i < records; i++ {
		rec, err := dfs.ReadFrame(r)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: output file %s truncated at record %d: %w", path, i, err)
		}
		out = append(out, dfs.Record(rec))
	}
	return out, nil
}
