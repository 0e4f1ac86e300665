package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"knnjoin/internal/codec"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/obs"
	"knnjoin/internal/serve"
	"knnjoin/internal/vector"
	"knnjoin/internal/vindex"
	"knnjoin/internal/voronoi"
)

// scanFunc executes one kNN scan run against a shard. The router's
// production implementation is an HTTP call with replica failover; the
// property tests substitute a local function over the full index.
type scanFunc func(shard int, req *ScanRequest) (*ScanResponse, error)

// rangeFunc is scanFunc's range-query counterpart.
type rangeFunc func(shard int, req *RangeScanRequest) (*RangeScanResponse, error)

// routerState is the routing table for one index generation, swapped
// atomically on reload: the metadata-only index view that drives the
// walk, the cell → shard owner map, and the generation number every
// delegated request carries.
type routerState struct {
	meta  *vindex.Index
	owner []int
	gen   int64
}

// replicaSet tracks one shard's replicas and which one the router
// currently prefers.
type replicaSet struct {
	urls      []string
	preferred atomic.Int32
}

// RouterConfig configures NewRouter.
type RouterConfig struct {
	// Timeout bounds each shard RPC attempt; on expiry the router fails
	// over to the next replica (default 5s). This is what turns a frozen
	// replica into a recoverable fault.
	Timeout time.Duration
	// ProbeInterval enables a background health prober that demotes
	// unresponsive preferred replicas between queries; zero disables it
	// (queries still fail over on their own).
	ProbeInterval time.Duration
	// Tracer, when non-nil, records one client span per shard scan RPC,
	// parented under the serve request span when the query carries one.
	// Nil disables tracing; responses are byte-identical either way.
	Tracer *obs.Tracer
	// Metrics, when non-nil, is where the router registers its shard_*
	// families — pass the serve.Server's registry so one /metrics page
	// covers both. Nil disables metric export (counters still no-op
	// safely).
	Metrics *obs.Registry
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	return c
}

// Router fans queries out over a shard cluster while replaying the
// exact single-node partition walk (see the package comment for why
// byte-identity forces that design). It implements serve.Backend, so a
// plain serve.Server in front of it speaks the identical HTTP API —
// and produces the identical bytes — as one over a local index.
type Router struct {
	cluster *Cluster
	cfg     RouterConfig
	client  *http.Client
	probeC  *http.Client
	state   atomic.Pointer[routerState]
	reps    []*replicaSet

	queries   atomic.Int64
	scanRPCs  atomic.Int64
	contacted atomic.Int64
	failovers atomic.Int64

	// /metrics mirrors of the counters above (nil-safe no-ops when
	// RouterConfig.Metrics is nil), plus the RPC tracer.
	tracer     *obs.Tracer
	mQueries   *obs.Counter
	mScanRPCs  *obs.Counter
	mContacted *obs.Counter
	mFailovers *obs.Counter

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewRouter builds a router over a started cluster and, when
// ProbeInterval is set, starts its health prober. Close the router
// before closing the cluster.
func NewRouter(c *Cluster, cfg RouterConfig) *Router {
	cfg = cfg.withDefaults()
	r := &Router{
		cluster: c,
		cfg:     cfg,
		client:  &http.Client{Timeout: cfg.Timeout},
		probeC:  &http.Client{Timeout: cfg.Timeout},
		tracer:  cfg.Tracer,
		stop:    make(chan struct{}),
	}
	r.mQueries = cfg.Metrics.Counter("shard_router_queries_total", "Queries routed (batch members counted individually).")
	r.mScanRPCs = cfg.Metrics.Counter("shard_router_scan_rpcs_total", "Successful /shard/scan RPCs issued.")
	r.mContacted = cfg.Metrics.Counter("shard_router_shards_contacted_total", "Distinct shards contacted, summed over queries.")
	r.mFailovers = cfg.Metrics.Counter("shard_router_failovers_total", "Replica failover transitions (query retries and prober demotions).")
	r.state.Store(&routerState{meta: c.Meta(), owner: c.Owner(), gen: c.Gen()})
	eps := c.Endpoints()
	r.reps = make([]*replicaSet, len(eps))
	for s, urls := range eps {
		r.reps[s] = &replicaSet{urls: urls}
	}
	if cfg.ProbeInterval > 0 {
		r.wg.Add(1)
		go r.probe()
	}
	return r
}

// Close stops the background prober (the cluster is closed separately).
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// knnWalk replays the single-node kNN walk over routing metadata,
// delegating each maximal run of scan-needing partitions on one shard
// as a single RPC. Local decisions are exact, not approximate: the
// router's θ equals the single-node θ at every step because θ only
// changes inside delegated scans, whose results come back before the
// walk continues. Partitions the walk prunes are consumed locally even
// mid-run (pruning is monotone in θ — a cell prunable at the current θ
// stays prunable after the run tightens it — so the decision and its
// accounting match the single-node walk exactly), which keeps runs
// long across interleaved foreign cells. Returns the result, the
// exact single-node Stats, and the number of distinct shards
// contacted.
func knnWalk(meta *vindex.Index, owner []int, gen int64, q vector.Point, k int, scan scanFunc) ([]nnheap.Candidate, vindex.Stats, int, error) {
	var st vindex.Stats
	if k <= 0 {
		return nil, st, 0, nil
	}
	w, order, gaps := meta.StartKNN(q, k, &st.DistComputations)
	heap := nnheap.NewKHeapAmong(k, meta.Len())
	contacted := make(map[int]bool)
	// local consumes partition j at the router when the walk skips or
	// prunes it, and reports whether it did.
	local := func(j int) bool {
		_, _, d := w.Decide(j, gaps[j])
		if d == voronoi.Prune {
			st.PartitionsPruned++
		}
		return d != voronoi.Scan
	}

	i := 0
	for i < len(order) {
		j := order[i]
		if local(j) {
			i++
			continue
		}
		// A scan: open a run on j's shard and extend it as far as the
		// visit order allows — consuming empty and prunable cells locally,
		// stopping at the first foreign cell that needs scanning.
		sh := owner[j]
		parts := []ScanPart{{J: j, Gap: math.Float64bits(gaps[j])}}
		e := i + 1
		for ; e < len(order); e++ {
			je := order[e]
			if local(je) {
				continue
			}
			if owner[je] != sh {
				break
			}
			parts = append(parts, ScanPart{J: je, Gap: math.Float64bits(gaps[je])})
		}
		resp, err := scan(sh, &ScanRequest{
			Gen: gen, K: k, QPart: w.Own, QDist: math.Float64bits(w.OwnDist),
			Q: pointBits(q), Theta: math.Float64bits(w.Theta), Heap: heapWire(heap), Parts: parts,
		})
		if err != nil {
			return nil, st, len(contacted), err
		}
		w.Theta = math.Float64frombits(resp.Theta)
		heap, err = wireHeap(k, resp.Heap)
		if err != nil {
			return nil, st, len(contacted), fmt.Errorf("shard %d returned a corrupt heap: %w", sh, err)
		}
		st.DistComputations += resp.DistComputations
		st.PartitionsScanned += resp.PartitionsScanned
		st.PartitionsPruned += resp.PartitionsPruned
		contacted[sh] = true
		i = e
	}
	return meta.FinishKNN(heap), st, len(contacted), nil
}

// rangeWalk runs the single-node range walk (vindex.RangeWindows) over
// routing metadata, batching each shard's windows into one RPC. The
// bound θ of a range query is the fixed radius, so unlike kNN there is
// no sequential dependency — the per-shard window lists are fully
// determined up front and the row charges are order-independent sums.
func rangeWalk(meta *vindex.Index, owner []int, gen int64, q vector.Point, radius float64, scan rangeFunc) ([]codec.Object, vindex.Stats, int, error) {
	var st vindex.Stats
	perShard := make(map[int][]RangePart)
	for _, win := range meta.RangeWindows(q, radius, &st.DistComputations) {
		perShard[owner[win.J]] = append(perShard[owner[win.J]], RangePart{J: win.J, Lo: math.Float64bits(win.Lo), Hi: math.Float64bits(win.Hi)})
	}
	shards := make([]int, 0, len(perShard))
	for sh := range perShard {
		shards = append(shards, sh)
	}
	sort.Ints(shards)
	var out []codec.Object
	for _, sh := range shards {
		resp, err := scan(sh, &RangeScanRequest{Gen: gen, Q: pointBits(q), Radius: math.Float64bits(radius), Parts: perShard[sh]})
		if err != nil {
			return nil, st, 0, err
		}
		st.DistComputations += resp.Rows
		out = append(out, wireObjects(resp.Matches)...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, st, len(shards), nil
}

// KNNWithStats implements serve.Backend over the cluster. The context
// may carry the serve request span (obs.SpanFromContext); scan RPCs are
// recorded as client spans under it.
func (r *Router) KNNWithStats(ctx context.Context, q vector.Point, k int) ([]nnheap.Candidate, vindex.Stats, error) {
	st := r.state.Load()
	res, stats, n, err := knnWalk(st.meta, st.owner, st.gen, q, k, r.boundScan(ctx))
	r.queries.Add(1)
	r.mQueries.Inc()
	r.contacted.Add(int64(n))
	r.mContacted.Add(int64(n))
	return res, stats, err
}

// KNNBatchWithStats answers the batch over ONE routing state, like the
// single-node server answers a batch over one snapshot, so a reload
// mid-batch cannot mix generations within a response.
func (r *Router) KNNBatchWithStats(ctx context.Context, qs []vector.Point, ks []int) ([][]nnheap.Candidate, []vindex.Stats, error) {
	st := r.state.Load()
	scan := r.boundScan(ctx)
	results := make([][]nnheap.Candidate, len(qs))
	stats := make([]vindex.Stats, len(qs))
	for i, q := range qs {
		res, s, n, err := knnWalk(st.meta, st.owner, st.gen, q, ks[i], scan)
		if err != nil {
			return nil, nil, fmt.Errorf("query %d: %w", i, err)
		}
		r.queries.Add(1)
		r.mQueries.Inc()
		r.contacted.Add(int64(n))
		r.mContacted.Add(int64(n))
		results[i], stats[i] = res, s
	}
	return results, stats, nil
}

// RangeWithStats implements serve.Backend over the cluster.
func (r *Router) RangeWithStats(ctx context.Context, q vector.Point, radius float64) ([]codec.Object, vindex.Stats, error) {
	st := r.state.Load()
	res, stats, n, err := rangeWalk(st.meta, st.owner, st.gen, q, radius, r.boundRange(ctx))
	r.queries.Add(1)
	r.mQueries.Inc()
	r.contacted.Add(int64(n))
	r.mContacted.Add(int64(n))
	return res, stats, err
}

// Len reports the object count of the current generation.
func (r *Router) Len() int { return r.state.Load().meta.Len() }

// Dim reports the dimensionality of the indexed points.
func (r *Router) Dim() int { return r.state.Load().meta.Dim() }

// NumPartitions reports the Voronoi cell count.
func (r *Router) NumPartitions() int { return r.state.Load().meta.NumPartitions() }

// Loader is the serve.Config.Loader for a sharded server: /reload
// pushes the new index file to every shard replica, then swaps the
// routing table, so the server's snapshot swap publishes a fully
// consistent new generation.
func (r *Router) Loader(path string) (serve.Backend, error) {
	meta, owner, gen, err := r.cluster.Reload(path)
	if err != nil {
		return nil, err
	}
	r.state.Store(&routerState{meta: meta, owner: owner, gen: gen})
	return r, nil
}

// boundScan binds the request context into the production scanFunc:
// POST /shard/scan with failover, one client span per RPC.
func (r *Router) boundScan(ctx context.Context) scanFunc {
	parent := obs.SpanFromContext(ctx).Context()
	return func(sh int, req *ScanRequest) (*ScanResponse, error) {
		req.TraceID, req.SpanParent = parent.TraceID, parent.SpanID
		span := r.tracer.StartSpan("scan-rpc", parent)
		defer span.End()
		span.SetAttr("shard", fmt.Sprint(sh))
		span.SetAttr("parts", fmt.Sprint(len(req.Parts)))
		var resp ScanResponse
		if err := r.call(sh, "/shard/scan", req, &resp); err != nil {
			span.SetAttr("outcome", "error")
			return nil, err
		}
		span.SetAttr("outcome", "ok")
		r.scanRPCs.Add(1)
		r.mScanRPCs.Inc()
		return &resp, nil
	}
}

// boundRange is boundScan's range-query counterpart.
func (r *Router) boundRange(ctx context.Context) rangeFunc {
	parent := obs.SpanFromContext(ctx).Context()
	return func(sh int, req *RangeScanRequest) (*RangeScanResponse, error) {
		req.TraceID, req.SpanParent = parent.TraceID, parent.SpanID
		span := r.tracer.StartSpan("range-rpc", parent)
		defer span.End()
		span.SetAttr("shard", fmt.Sprint(sh))
		span.SetAttr("parts", fmt.Sprint(len(req.Parts)))
		var resp RangeScanResponse
		if err := r.call(sh, "/shard/range", req, &resp); err != nil {
			span.SetAttr("outcome", "error")
			return nil, err
		}
		span.SetAttr("outcome", "ok")
		return &resp, nil
	}
}

// call POSTs to shard sh's preferred replica, failing over through the
// remaining replicas on timeout, refusal, or non-200 — safe because
// scans are pure reads of an immutable generation, so a retried scan
// returns the same bytes the failed replica would have. A success on a
// non-preferred replica promotes it for subsequent requests.
func (r *Router) call(sh int, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	rs := r.reps[sh]
	n := len(rs.urls)
	start := int(rs.preferred.Load())
	var lastErr error
	for t := 0; t < n; t++ {
		idx := (start + t) % n
		raw, err := r.post(rs.urls[idx]+path, body)
		if err != nil {
			lastErr = fmt.Errorf("replica %d: %w", idx, err)
			r.failovers.Add(1)
			r.mFailovers.Inc()
			continue
		}
		if idx != int(rs.preferred.Load()) {
			rs.preferred.Store(int32(idx))
		}
		return json.Unmarshal(raw, resp)
	}
	return fmt.Errorf("shard %d: all %d replicas failed: %w", sh, n, lastErr)
}

func (r *Router) post(url string, body []byte) ([]byte, error) {
	resp, err := r.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, truncate(raw, 256))
	}
	return raw, nil
}

func truncate(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// probe periodically health-checks each shard's preferred replica and
// demotes it to the next healthy one on failure, so queries after a
// freeze stop paying the timeout on every request.
func (r *Router) probe() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			for _, rs := range r.reps {
				p := int(rs.preferred.Load())
				if r.healthy(rs.urls[p]) {
					continue
				}
				for d := 1; d < len(rs.urls); d++ {
					cand := (p + d) % len(rs.urls)
					if r.healthy(rs.urls[cand]) {
						rs.preferred.CompareAndSwap(int32(p), int32(cand))
						r.failovers.Add(1)
						r.mFailovers.Inc()
						break
					}
				}
			}
		}
	}
}

func (r *Router) healthy(url string) bool {
	resp, err := r.probeC.Get(url + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// RouterStats is a point-in-time snapshot of the router's counters.
type RouterStats struct {
	// Queries is the number of queries routed (batch members counted
	// individually); ScanRPCs the number of kNN scan RPCs issued.
	Queries int64 `json:"queries"`
	// ScanRPCs counts successful /shard/scan calls.
	ScanRPCs int64 `json:"scan_rpcs"`
	// ShardsContactedTotal sums distinct-shards-contacted over queries;
	// AvgShardsContacted is that divided by Queries.
	ShardsContactedTotal int64 `json:"shards_contacted_total"`
	// AvgShardsContacted is the per-query mean of distinct shards hit.
	AvgShardsContacted float64 `json:"avg_shards_contacted"`
	// Failovers counts replica failover transitions (query-path retries
	// and prober demotions).
	Failovers int64 `json:"failovers"`
	// Gen is the current routing generation; Preferred the current
	// preferred replica per shard.
	Gen int64 `json:"gen"`
	// Preferred is the preferred replica index per shard.
	Preferred []int `json:"preferred"`
}

// Stats snapshots the router's counters.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Queries:              r.queries.Load(),
		ScanRPCs:             r.scanRPCs.Load(),
		ShardsContactedTotal: r.contacted.Load(),
		Failovers:            r.failovers.Load(),
		Gen:                  r.state.Load().gen,
		Preferred:            make([]int, len(r.reps)),
	}
	if st.Queries > 0 {
		st.AvgShardsContacted = float64(st.ShardsContactedTotal) / float64(st.Queries)
	}
	for s, rs := range r.reps {
		st.Preferred[s] = int(rs.preferred.Load())
	}
	return st
}
