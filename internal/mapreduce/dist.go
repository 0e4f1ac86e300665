package mapreduce

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"knnjoin/internal/obs"
	"knnjoin/internal/proc"
)

// Config configures a cluster: the scheduler in this process plus
// Workers spawned worker processes (re-executions of the current binary
// — main or TestMain must call RunWorkerIfSpawned). Jobs submitted
// through Cluster.Run execute on the processes when they carry a
// registered Kind; kindless jobs — and every job when Workers is zero —
// run on goroutine workers of the same scheduler, under the same fault
// plan and tracing. The zero Config is the in-process engine.
type Config struct {
	// Workers is the number of worker processes; zero starts none.
	// Each reads its map tasks' input splits from the cluster store's
	// files, which must therefore be a *dfs.Disk.
	Workers int

	// Engine says where runs live between the phases and how reducers
	// merge them (see Engine). Worker processes always exchange runs as
	// files — in a scratch directory created under Engine.SpillDir, or
	// the system temp directory, and removed on Close — so for them only
	// the merge budget matters. Coordinator and workers must see the
	// same filesystem — the engine distributes compute across processes,
	// not machines.
	Engine Engine

	// LeaseTimeout is how long a task attempt may go without a
	// heartbeat before it is presumed dead and its task re-dispatched.
	// Zero selects 800ms. Attempts on goroutine workers carry a lease
	// only under a fault plan — nothing else can make one go silent.
	LeaseTimeout time.Duration

	// SpeculativeAfter, when positive, launches a backup attempt for a
	// task whose sole attempt has been running at least this long while
	// the cluster is otherwise idle — straggler re-execution, §3.6 of
	// the MapReduce paper. Zero disables speculation.
	SpeculativeAfter time.Duration

	// Faults is an optional deterministic fault-injection plan every
	// worker evaluates; see FaultPlan. Nil injects nothing.
	Faults *FaultPlan

	// TraceDir, when non-empty, enables tracing: the scheduler and
	// every worker record spans to per-worker JSONL files in this
	// directory (merge and render them with cmd/knntrace).
	TraceDir string

	// Pprof exposes net/http/pprof under /debug/pprof on the
	// coordinator's HTTP server (Workers > 0).
	Pprof bool
}

// defaultLease is the lease timeout when Config leaves it zero.
const defaultLease = 800 * time.Millisecond

// lease returns the configured lease timeout.
func (c *Cluster) lease() time.Duration {
	if c.cfg.LeaseTimeout > 0 {
		return c.cfg.LeaseTimeout
	}
	return defaultLease
}

// workerProcs is the process transport's coordinator side: an HTTP
// server the worker processes poll, and the processes themselves.
type workerProcs struct {
	dir  string // scratch directory shared with the workers
	srv  *http.Server
	base string

	children []*proc.Child
	live     int // workers not yet seen to exit; guarded by Cluster.mu

	// metrics backs the coordinator's /metrics endpoint.
	metrics *obs.Registry
}

// startProcs brings up the coordinator's HTTP server and spawns the
// worker processes. On error the caller Closes the cluster, which tears
// down whatever was started.
func (c *Cluster) startProcs() error {
	p := &workerProcs{metrics: obs.NewRegistry(), live: c.cfg.Workers}
	c.procs = p
	c.mJobs = p.metrics.Counter("mr_jobs_total", "Jobs run on this cluster.")
	c.mTasks = p.metrics.Counter("mr_worker_tasks_total", "Task attempts committed by worker processes.")
	c.mReexec = p.metrics.Counter("mr_reexecuted_attempts_total", "Attempts lost to lease expiry, worker exit or bad-run repair and re-dispatched.")
	c.mSpec = p.metrics.Counter("mr_speculative_attempts_total", "Speculative backup attempts launched against stragglers.")
	c.mShufB = p.metrics.Counter("mr_shuffle_bytes_total", "Bytes of committed map-side shuffle runs.")
	c.mSpillB = p.metrics.Counter("mr_spill_bytes_total", "Bytes spilled to disk under memory pressure.")

	dir, err := os.MkdirTemp(c.cfg.Engine.SpillDir, "knnjoin-mr-*")
	if err != nil {
		return fmt.Errorf("mapreduce: scratch dir: %w", err)
	}
	p.dir = dir

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("mapreduce: coordinator listen: %w", err)
	}
	p.base = "http://" + ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/poll", jsonHandler(c.poll))
	mux.HandleFunc("/done", jsonHandler(c.done))
	mux.HandleFunc("/heartbeat", jsonHandler(c.heartbeat))
	metricsHandler := p.metrics.Handler()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		c.refreshTaskGauges()
		metricsHandler.ServeHTTP(w, r)
	})
	if c.cfg.Pprof {
		obs.RegisterPprof(mux)
	}
	p.srv = obs.NewServer(mux)
	go p.srv.Serve(ln)

	hb := c.lease() / 4
	for i := 0; i < c.cfg.Workers; i++ {
		child, err := proc.Start(fmt.Sprintf("worker %d", i), workerEnv, workerConfig{URL: p.base, Index: i,
			HeartbeatMs: hb.Milliseconds(), Faults: c.cfg.Faults, TraceDir: c.cfg.TraceDir})
		if err != nil {
			return fmt.Errorf("mapreduce: %w", err)
		}
		p.children = append(p.children, child)
		go func() {
			<-child.Exited()
			c.mu.Lock()
			p.live--
			if c.cur != nil {
				c.workerExitedLocked(c.cur, i)
			}
			c.mu.Unlock()
		}()
	}
	return nil
}

// exitReport names each worker process's exit status and last stderr
// line, for a job left with none; goroutine workers leave none.
func (c *Cluster) exitReport(j *coordJob) (report string) {
	for i := 0; !j.local && i < len(c.procs.children); i++ {
		report += fmt.Sprintf("; %v", c.procs.children[i].Err())
	}
	return report
}

// poll answers one /poll.
func (c *Cluster) poll(r *pollRequest) pollResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return pollResponse{Shutdown: true}
	}
	if c.cur != nil {
		if a := c.assignLocked(c.cur, r.Worker, time.Now()); a != nil {
			return pollResponse{Task: a}
		}
	}
	return pollResponse{WaitMs: 10}
}

// done processes one /done report. What arrives is another process's
// word: the error is a string again, and a map attempt's run list is
// checked before the scheduler indexes it by reducer.
func (c *Cluster) done(comp *completion) completionResponse {
	if comp.Err != "" {
		comp.err = errors.New(comp.Err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.cur
	if j == nil || comp.JobID != j.id {
		return completionResponse{}
	}
	if comp.err == nil && comp.Phase == "map" && !j.mapOnly && len(comp.Runs) != j.nReduce {
		comp.Err = fmt.Sprintf("mapreduce: map attempt reported %d runs for %d reducers", len(comp.Runs), j.nReduce)
		comp.err = errors.New(comp.Err)
	}
	return completionResponse{Accepted: c.completeLocked(j, comp)}
}

// heartbeat processes one /heartbeat.
func (c *Cluster) heartbeat(h *heartbeatMsg) heartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.cur
	return heartbeatResponse{Abandoned: j == nil || h.JobID != j.id || !c.heartbeatLocked(j, h)}
}

// CoordinatorURL returns the coordinator's base URL for a cluster with
// worker processes ("" otherwise) — its /metrics endpoint serves the
// engine's metric families in Prometheus text format.
func (c *Cluster) CoordinatorURL() string {
	if c.procs == nil {
		return ""
	}
	return c.procs.base
}

// refreshTaskGauges recomputes the task-state gauges from the current
// job's task table on each /metrics scrape.
func (c *Cluster) refreshTaskGauges() {
	var pending, running, done int64
	c.mu.Lock()
	if j := c.cur; j != nil {
		for _, tasks := range [][]taskState{j.maps, j.reduces} {
			for i := range tasks {
				switch tasks[i].state {
				case taskPending:
					pending++
				case taskRunning:
					running++
				case taskDone:
					done++
				}
			}
		}
	}
	live := int64(c.procs.live)
	c.mu.Unlock()
	m := c.procs.metrics
	m.Gauge("mr_tasks_pending", "Tasks awaiting dispatch in the current job.").Set(pending)
	m.Gauge("mr_tasks_running", "Tasks with at least one live attempt in the current job.").Set(running)
	m.Gauge("mr_tasks_done", "Tasks committed in the current job.").Set(done)
	m.Gauge("mr_workers_live", "Worker processes currently alive.").Set(live)
}

// jsonHandler adapts a request/response function to an HTTP endpoint.
func jsonHandler[Req, Resp any](fn func(*Req) Resp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(fn(&req))
	}
}

// stop kills and reaps the workers, stops the coordinator server, and
// removes the scratch directory. It copes with a partially started
// transport.
func (p *workerProcs) stop() {
	proc.Kill(p.children...)
	if p.srv != nil {
		p.srv.Close()
	}
	if p.dir != "" {
		os.RemoveAll(p.dir)
	}
}
