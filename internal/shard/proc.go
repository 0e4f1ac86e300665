package shard

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"knnjoin/internal/obs"
	"knnjoin/internal/proc"
	"knnjoin/internal/serve"
	"knnjoin/internal/vindex"
)

// shardEnv carries a procConfig (JSON) into a spawned shard replica.
// Replicas are re-executed copies of the parent binary, started and
// supervised by package proc like the MapReduce workers;
// RunShardIfSpawned turns the re-exec into a shard server before the
// program's own main logic.
const shardEnv = "KNNJOIN_SHARD"

// procConfig is everything a shard replica needs, shipped via shardEnv.
type procConfig struct {
	// Index is the index file to load; Cells the owned Voronoi cells.
	Index string `json:"index"`
	Cells []int  `json:"cells"`
	// Shard and Replica locate this process in the cluster (for fault
	// matching and diagnostics).
	Shard   int `json:"shard"`
	Replica int `json:"replica"`
	// Gen is the initial index generation number.
	Gen int64 `json:"gen"`
	// Faults is the deterministic fault-injection plan, if any.
	Faults *FaultPlan `json:"faults,omitempty"`
	// TraceDir, when set, makes the replica write scan spans as JSONL
	// there (joined to the router's trace via the request trace fields).
	TraceDir string `json:"trace_dir,omitempty"`
	// Pprof exposes net/http/pprof under /debug/pprof on the replica.
	Pprof bool `json:"pprof,omitempty"`
}

// RunShardIfSpawned checks whether this process was spawned as a shard
// replica and, if so, serves until killed — it never returns in that
// case. Call it first thing in main (and in TestMain for test binaries
// that start shard clusters); it is a no-op in ordinary processes.
func RunShardIfSpawned() { proc.IfSpawned(shardEnv, runShard) }

// shardProc is one shard replica: a serve.Server over the cell subset
// (so the shard's own /knn, /range, /knn/batch, /healthz work
// standalone, exact over the objects it holds) plus the /shard/scan,
// /shard/range and /shard/reload walk-delegation endpoints the router
// drives.
type shardProc struct {
	cfg    procConfig
	srv    *serve.Server
	tracer *obs.Tracer

	// /metrics families for the delegated-walk endpoints; the serve
	// families (shard-local /knn etc.) live on the same registry.
	mScans   *obs.Counter
	mRanges  *obs.Counter
	mReloads *obs.Counter

	// gens maps generation → subset index. Two generations are
	// retained, the newest and the one the router routes, so router
	// walks in flight across a /shard/reload finish on the generation
	// they started with.
	mu       sync.Mutex
	gens     map[int64]*vindex.Index
	genOrder []int64

	scans  atomic.Int64
	frozen atomic.Bool
	fireMu sync.Mutex
	fired  []bool
}

// runShard loads the replica's cells, sends its address as the ready
// line, and serves.
func runShard(cfg procConfig) error {
	// The replica decodes, and so validates, only the cells it owns;
	// the router read nothing but their framing.
	sub, err := vindex.LoadFile(cfg.Index, vindex.OnlyCells(cfg.Cells))
	if err != nil {
		return err
	}
	p := &shardProc{cfg: cfg, gens: map[int64]*vindex.Index{}}
	if cfg.Faults != nil {
		p.fired = make([]bool, len(cfg.Faults.Events))
	}
	if cfg.TraceDir != "" {
		tr, err := obs.NewTracer(cfg.TraceDir, fmt.Sprintf("shard-%d-%d", cfg.Shard, cfg.Replica))
		if err != nil {
			return err
		}
		defer tr.Close()
		p.tracer = tr
	}
	// The replica's serve.Server owns the /metrics registry; the shard
	// families below join it so one scrape covers both roles.
	p.srv = serve.New(sub, cfg.Index, serve.Config{Tracer: p.tracer})
	reg := p.srv.Metrics()
	p.mScans = reg.Counter("shard_scan_requests_total", "Delegated /shard/scan runs executed.")
	p.mRanges = reg.Counter("shard_range_requests_total", "Delegated /shard/range runs executed.")
	p.mReloads = reg.Counter("shard_reloads_total", "Index generations loaded via /shard/reload.")
	p.putGen(cfg.Gen, cfg.Gen, sub)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /shard/scan", p.handleScan)
	mux.HandleFunc("POST /shard/range", p.handleRange)
	mux.HandleFunc("POST /shard/reload", p.handleReload)
	if cfg.Pprof {
		obs.RegisterPprof(mux)
	}
	mux.Handle("/", p.srv.Handler())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if err := proc.SendReady(ln.Addr().String()); err != nil {
		return err
	}
	return obs.NewServer(p.gate(mux)).Serve(ln)
}

// gate wedges every handler once the replica is frozen — including
// /healthz, which is the point: a frozen replica looks dead only to
// callers that enforce timeouts.
func (p *shardProc) gate(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p.frozen.Load() {
			select {}
		}
		h.ServeHTTP(w, r)
	})
}

// putGen stores generation gen and evicts the oldest generations but
// live until two remain. A reload that failed at another shard leaves
// its generation here unused; keeping live means any number of such
// failures in a row cannot evict the generation the router routes.
func (p *shardProc) putGen(gen, live int64, ix *vindex.Index) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gens[gen] = ix
	p.genOrder = append(p.genOrder, gen)
	for i := 0; len(p.genOrder) > 2; {
		if p.genOrder[i] == live {
			i++
			continue
		}
		delete(p.gens, p.genOrder[i])
		p.genOrder = append(p.genOrder[:i], p.genOrder[i+1:]...)
	}
}

func (p *shardProc) gen(gen int64) *vindex.Index {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gens[gen]
}

func writeShardErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(serve.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func writeShardJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// maybeFault evaluates the fault plan at the scan checkpoint; n is the
// 1-based scan arrival count. The first unfired matching event fires.
func (p *shardProc) maybeFault(n int64) {
	plan := p.cfg.Faults
	if plan == nil {
		return
	}
	p.fireMu.Lock()
	var act *FaultEvent
	for i := range plan.Events {
		e := &plan.Events[i]
		if p.fired[i] {
			continue
		}
		if e.Shard != -1 && e.Shard != p.cfg.Shard {
			continue
		}
		if e.Replica != -1 && e.Replica != p.cfg.Replica {
			continue
		}
		if int64(e.AfterScans) != n {
			continue
		}
		p.fired[i] = true
		act = e
		break
	}
	p.fireMu.Unlock()
	if act == nil {
		return
	}
	switch act.Action {
	case FaultKill:
		os.Exit(proc.FaultKillExitCode)
	case FaultFreeze:
		p.frozen.Store(true)
		select {} // wedge this request too; gate catches the rest
	}
}

// scanSpan opens the replica-side span for one delegated run, joined
// to the router's trace via the request's trace fields. Replicas are
// killed, not shut down, so the span is flushed on end — otherwise it
// would die in the tracer's buffer.
func (p *shardProc) scanSpan(name, traceID, parent string) (*obs.Span, func()) {
	span := p.tracer.StartSpan(name, obs.SpanContext{TraceID: traceID, SpanID: parent})
	span.SetAttr("shard", fmt.Sprint(p.cfg.Shard))
	span.SetAttr("replica", fmt.Sprint(p.cfg.Replica))
	return span, func() {
		span.End()
		p.tracer.Flush()
	}
}

func (p *shardProc) handleScan(w http.ResponseWriter, r *http.Request) {
	p.maybeFault(p.scans.Add(1))
	var req ScanRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeShardErr(w, http.StatusBadRequest, "bad scan request: %v", err)
		return
	}
	span, done := p.scanSpan("shard-scan", req.TraceID, req.SpanParent)
	defer done()
	span.SetAttr("parts", fmt.Sprint(len(req.Parts)))
	ix := p.gen(req.Gen)
	if ix == nil {
		span.SetAttr("outcome", "stale-gen")
		writeShardErr(w, http.StatusConflict, "unknown index generation %d", req.Gen)
		return
	}
	resp, err := execScan(ix, &req)
	if err != nil {
		span.SetAttr("outcome", "error")
		writeShardErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	span.SetAttr("outcome", "ok")
	span.SetAttr("dist_computations", fmt.Sprint(resp.DistComputations))
	p.mScans.Inc()
	writeShardJSON(w, resp)
}

func (p *shardProc) handleRange(w http.ResponseWriter, r *http.Request) {
	var req RangeScanRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeShardErr(w, http.StatusBadRequest, "bad range request: %v", err)
		return
	}
	span, done := p.scanSpan("shard-range", req.TraceID, req.SpanParent)
	defer done()
	span.SetAttr("parts", fmt.Sprint(len(req.Parts)))
	ix := p.gen(req.Gen)
	if ix == nil {
		span.SetAttr("outcome", "stale-gen")
		writeShardErr(w, http.StatusConflict, "unknown index generation %d", req.Gen)
		return
	}
	resp, err := execRangeScan(ix, &req)
	if err != nil {
		span.SetAttr("outcome", "error")
		writeShardErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	span.SetAttr("outcome", "ok")
	p.mRanges.Inc()
	writeShardJSON(w, resp)
}

func (p *shardProc) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadShardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeShardErr(w, http.StatusBadRequest, "bad reload request: %v", err)
		return
	}
	sub, err := vindex.LoadFile(req.Index, vindex.OnlyCells(req.Cells))
	if err != nil {
		writeShardErr(w, http.StatusUnprocessableEntity, "loading %s: %v", req.Index, err)
		return
	}
	p.srv.Swap(sub, req.Index)
	p.putGen(req.Gen, req.Live, sub)
	p.mReloads.Inc()
	writeShardJSON(w, serve.HealthResponse{Status: "ok", Objects: sub.Len(), Partitions: sub.NumPartitions()})
}
