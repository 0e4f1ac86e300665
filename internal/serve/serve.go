// Package serve is the online query tier over the pivot index: an
// HTTP/JSON server that answers kNN and range queries from a shared,
// immutable vindex.Index snapshot. It exists because vindex queries are
// side-effect free — many goroutines can read one Index — which this
// package turns into a serving surface in the spirit of the
// related work on throughput-oriented kNN query processing (Nodarakis et
// al.'s AkNN classification service; Gowanlock's batched hybrid join):
// batches of independent queries amortized over one shared partitioning.
//
// The server owns four mechanisms:
//
//   - a bounded worker pool: at most Config.Workers queries execute at
//     once, whatever the HTTP concurrency;
//   - an atomic snapshot: the index (plus its result cache) lives behind
//     one atomic pointer, so /reload swaps datasets without locking —
//     in-flight queries finish on the snapshot they started with;
//   - an LRU result cache keyed by (point, k) holding the exact response
//     bytes, so a hit is byte-identical to the miss that filled it;
//   - counters and a latency ring feeding /stats (query counts, p50/p90/
//     p99, cache hit rate, distance-computation totals).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"knnjoin/internal/codec"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/obs"
	"knnjoin/internal/vector"
	"knnjoin/internal/vindex"
)

// Backend is the query engine a Server fronts. The single-node backend
// is a *vindex.Index (wrapped to add the error results an in-process
// index can never produce); the sharded backend is internal/shard's
// router. Every handler, validation message, cache and marshaling path
// in this package is shared by all backends, which is what makes
// "sharded responses are byte-identical to single-node responses" a
// structural property: only the three query calls differ.
//
// The query methods must be safe for concurrent use and must match
// vindex semantics exactly: KNN results ascending by distance (ties by
// ID), range results in ascending ID order, Stats accounted per query.
// The context carries the request's trace span (obs.SpanFromContext)
// so remote backends parent their RPC spans under it; it never affects
// any result byte, and in-process backends may ignore it.
type Backend interface {
	// KNNWithStats answers one kNN query.
	KNNWithStats(ctx context.Context, q vector.Point, k int) ([]nnheap.Candidate, vindex.Stats, error)
	// KNNBatchWithStats answers len(qs) queries; results[i] and stats[i]
	// must equal a KNNWithStats(qs[i], ks[i]) call's.
	KNNBatchWithStats(ctx context.Context, qs []vector.Point, ks []int) ([][]nnheap.Candidate, []vindex.Stats, error)
	// RangeWithStats answers one range query.
	RangeWithStats(ctx context.Context, q vector.Point, radius float64) ([]codec.Object, vindex.Stats, error)
	// Len, Dim and NumPartitions describe the indexed dataset.
	Len() int
	// Dim is the dimensionality of the indexed points.
	Dim() int
	// NumPartitions is the pivot count.
	NumPartitions() int
}

// indexBackend adapts *vindex.Index to Backend: an in-process index
// cannot fail a query, so the adapter adds nil errors to the embedded
// index's own methods.
type indexBackend struct{ *vindex.Index }

func (b indexBackend) KNNWithStats(_ context.Context, q vector.Point, k int) ([]nnheap.Candidate, vindex.Stats, error) {
	res, st := b.Index.KNNWithStats(q, k)
	return res, st, nil
}

func (b indexBackend) KNNBatchWithStats(_ context.Context, qs []vector.Point, ks []int) ([][]nnheap.Candidate, []vindex.Stats, error) {
	res, sts := b.Index.KNNBatchWithStats(qs, ks)
	return res, sts, nil
}

func (b indexBackend) RangeWithStats(_ context.Context, q vector.Point, radius float64) ([]codec.Object, vindex.Stats, error) {
	res, st := b.Index.RangeWithStats(q, radius)
	return res, st, nil
}

// errBackend marks a query failure originating in the backend (an
// unreachable shard, say) rather than in response marshaling, so the
// handlers can answer 502 instead of 500.
var errBackend = errors.New("backend query failed")

// Config sizes the server's bounded resources. The zero value picks
// sensible defaults for every field.
type Config struct {
	// Workers bounds concurrently executing queries (default: GOMAXPROCS).
	Workers int
	// CacheSize is the LRU capacity in entries (default 1024; negative
	// disables caching).
	CacheSize int
	// MaxBatch bounds the queries accepted in one /knn/batch request
	// (default 1024).
	MaxBatch int
	// MaxBodyBytes bounds the accepted request body size, enforced
	// while reading — an oversized request fails at the byte budget,
	// not after being decoded into memory (default 16 MiB).
	MaxBodyBytes int64
	// LatencyWindow is the number of recent per-query latencies retained
	// for the /stats quantiles (default 4096).
	LatencyWindow int
	// Loader produces the backend /reload swaps in for a given index
	// file path. Nil means the single-node default: vindex.LoadFile. The
	// sharded router installs a loader that reloads every shard before
	// swapping the routing table.
	Loader func(path string) (Backend, error)
	// Tracer, when non-nil, records one span per request (annotated
	// with cache hit/miss and the query's work accounting) and carries
	// its context to the backend. Nil disables tracing; outputs are
	// byte-identical either way.
	Tracer *obs.Tracer
	// Metrics is the registry behind GET /metrics. Nil makes the server
	// create its own; pass one to share a registry across subsystems in
	// one process (a shard proc registers shard families on it too).
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.LatencyWindow <= 0 {
		c.LatencyWindow = 4096
	}
	return c
}

// snapshot is one immutable serving generation: the backend and the
// cache of its results. Reload replaces the whole snapshot atomically,
// so a query never mixes an old backend with a new cache or vice versa.
type snapshot struct {
	be     Backend
	cache  *lruCache // nil when caching is disabled
	source string    // index file the snapshot came from ("" if built in-process)
}

// Server answers kNN queries over an atomically swappable index
// snapshot. Construct with New; all methods are safe for concurrent use.
type Server struct {
	cfg  Config
	snap atomic.Pointer[snapshot]
	sem  chan struct{} // worker pool: one token per executing query

	start    time.Time
	reloadMu sync.Mutex // serializes /reload (queries never take it)

	knnCount     atomic.Int64
	rangeCount   atomic.Int64
	batchCount   atomic.Int64
	batchQueries atomic.Int64
	errCount     atomic.Int64
	distComps    atomic.Int64
	reloads      atomic.Int64

	lat latencyRing

	// Observability mirrors of the counters above for /metrics, plus
	// the request tracer. The tracer may be nil (disabled); the metric
	// handles never are — they come from the registry, which always
	// exists.
	tracer      *obs.Tracer
	metrics     *obs.Registry
	mKNN        *obs.Counter
	mRange      *obs.Counter
	mBatch      *obs.Counter
	mBatchQs    *obs.Counter
	mErrors     *obs.Counter
	mDistComps  *obs.Counter
	mReloads    *obs.Counter
	mCacheHits  *obs.Counter
	mCacheMiss  *obs.Counter
	mLatencyHst *obs.Histogram
}

// New returns a server over ix. source records where the index came from
// (the index file path, or "" when built in-process); /reload without an
// explicit path re-reads it.
func New(ix *vindex.Index, source string, cfg Config) *Server {
	return NewBackend(indexBackend{ix}, source, cfg)
}

// NewBackend is New for a non-index backend (the sharded router).
func NewBackend(be Backend, source string, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.Workers),
		start:  time.Now(),
		tracer: cfg.Tracer,
	}
	s.metrics = cfg.Metrics
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	s.mKNN = s.metrics.Counter("knnserve_knn_requests_total", "Answered /knn requests.")
	s.mRange = s.metrics.Counter("knnserve_range_requests_total", "Answered /range requests.")
	s.mBatch = s.metrics.Counter("knnserve_batch_requests_total", "Answered /knn/batch requests.")
	s.mBatchQs = s.metrics.Counter("knnserve_batch_queries_total", "Queries answered inside batches.")
	s.mErrors = s.metrics.Counter("knnserve_errors_total", "Non-2xx answers across all endpoints.")
	s.mDistComps = s.metrics.Counter("knnserve_dist_computations_total", "Distance evaluations by cache-missing queries.")
	s.mReloads = s.metrics.Counter("knnserve_reloads_total", "Index snapshot swaps.")
	s.mCacheHits = s.metrics.Counter("knnserve_cache_hits_total", "Result-cache hits.")
	s.mCacheMiss = s.metrics.Counter("knnserve_cache_misses_total", "Result-cache misses.")
	s.mLatencyHst = s.metrics.Histogram("knnserve_request_latency_ms", "Per-query latency in milliseconds.", nil)
	// The /stats quantile ring and the /metrics histogram share one
	// observation point: latencyRing.add feeds both (satellite of the
	// observability PR — the ring keeps its exact nearest-rank
	// quantiles, the histogram serves scrapes).
	s.lat = latencyRing{buf: make([]float64, cfg.LatencyWindow), hist: s.mLatencyHst}
	s.snap.Store(newSnapshot(be, source, cfg))
	return s
}

// Metrics returns the server's metric registry — the one /metrics
// serves — so co-resident subsystems (a shard process's scan handlers)
// can register their own families on it.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

func newSnapshot(be Backend, source string, cfg Config) *snapshot {
	var cache *lruCache
	if cfg.CacheSize > 0 {
		cache = newLRU(cfg.CacheSize)
	}
	return &snapshot{be: be, cache: cache, source: source}
}

// Swap atomically replaces the serving snapshot with a new index (and a
// fresh, empty result cache). In-flight queries finish on the snapshot
// they loaded; new queries see the new index.
func (s *Server) Swap(ix *vindex.Index, source string) {
	s.SwapBackend(indexBackend{ix}, source)
}

// SwapBackend is Swap for a non-index backend.
func (s *Server) SwapBackend(be Backend, source string) {
	s.snap.Store(newSnapshot(be, source, s.cfg))
	s.reloads.Add(1)
	s.mReloads.Inc()
}

// Index returns the current snapshot's index when the backend is a
// single-node index, nil otherwise (for tests and tools; the returned
// index is immutable).
func (s *Server) Index() *vindex.Index {
	if ib, ok := s.snap.Load().be.(indexBackend); ok {
		return ib.Index
	}
	return nil
}

// Backend returns the current snapshot's backend.
func (s *Server) Backend() Backend { return s.snap.Load().be }

// Handler returns the HTTP routing table:
//
//	POST /knn        one kNN query
//	POST /range      one range query
//	POST /knn/batch  up to MaxBatch kNN queries, answered in order
//	POST /reload     swap in a new index snapshot from disk
//	GET  /stats      counters, latency quantiles, cache hit rate
//	GET  /metrics    the same counters in Prometheus text format
//	GET  /healthz    liveness plus index size
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /knn", s.handleKNN)
	mux.HandleFunc("POST /range", s.handleRange)
	mux.HandleFunc("POST /knn/batch", s.handleBatch)
	mux.HandleFunc("POST /reload", s.handleReload)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.metrics.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// KNNRequest is the body of /knn and each element of /knn/batch.
type KNNRequest struct {
	// Point is the query point; its dimensionality must match the index.
	Point vector.Point `json:"point"`
	// K is the number of neighbors wanted (≥ 1). Values above the index
	// size are clamped to it — the result is the complete neighbor list
	// either way.
	K int `json:"k"`
}

// RangeRequest is the body of /range.
type RangeRequest struct {
	// Point is the query point.
	Point vector.Point `json:"point"`
	// Radius is the non-negative search radius.
	Radius float64 `json:"radius"`
}

// BatchRequest is the body of /knn/batch.
type BatchRequest struct {
	// Queries are answered concurrently on the worker pool; the response
	// preserves their order.
	Queries []KNNRequest `json:"queries"`
}

// Neighbor is one kNN result entry.
type Neighbor struct {
	// ID is the indexed object's identifier.
	ID int64 `json:"id"`
	// Dist is its distance to the query point.
	Dist float64 `json:"dist"`
}

// QueryStats is the per-query work accounting embedded in responses. For
// a cache hit it describes the computation that originally produced the
// cached result, keeping hits byte-identical to the miss that filled
// them.
type QueryStats struct {
	// DistComputations counts distance evaluations.
	DistComputations int64 `json:"dist_computations"`
	// PartitionsScanned counts Voronoi cells examined.
	PartitionsScanned int `json:"partitions_scanned"`
	// PartitionsPruned counts cells skipped by the paper's bounds.
	PartitionsPruned int `json:"partitions_pruned"`
}

// KNNResponse is the body of /knn answers.
type KNNResponse struct {
	// Neighbors in ascending distance order, ties by ID.
	Neighbors []Neighbor `json:"neighbors"`
	// Stats is the query's work accounting.
	Stats QueryStats `json:"stats"`
}

// RangeObject is one /range result entry.
type RangeObject struct {
	// ID is the indexed object's identifier.
	ID int64 `json:"id"`
	// Point is the object's coordinates.
	Point vector.Point `json:"point"`
}

// RangeResponse is the body of /range answers, objects in ID order.
type RangeResponse struct {
	// Objects within the radius, in ascending ID order.
	Objects []RangeObject `json:"objects"`
	// Stats is the query's work accounting.
	Stats QueryStats `json:"stats"`
}

// BatchResponse is the body of /knn/batch answers.
type BatchResponse struct {
	// Results holds one marshaled KNNResponse per query, in request
	// order; kept raw so each is byte-identical to the /knn answer for
	// the same (point, k).
	Results []json.RawMessage `json:"results"`
}

// ReloadRequest is the body of /reload. An empty path re-reads the
// snapshot's original index file.
type ReloadRequest struct {
	// Path is the index file to load (written by knnindex build).
	Path string `json:"path"`
}

// ReloadResponse reports what /reload swapped in.
type ReloadResponse struct {
	// Objects and Partitions describe the new index.
	Objects int `json:"objects"`
	// Partitions is the new index's pivot count.
	Partitions int `json:"partitions"`
	// Source is the file the new snapshot was loaded from.
	Source string `json:"source"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	// Error is the human-readable reason.
	Error string `json:"error"`
}

// MarshalKNN renders the canonical /knn response body for a result
// computed by vindex. The serve handlers and the load-generator's
// sequential verification both use it, which is what makes "server
// answers are byte-identical to sequential vindex queries" a checkable
// property rather than a claim. It errors when a distance is
// non-finite (JSON cannot carry it), which happens only when the
// indexed dataset itself contains non-finite coordinates.
func MarshalKNN(cands []nnheap.Candidate, st vindex.Stats) ([]byte, error) {
	resp := KNNResponse{
		Neighbors: make([]Neighbor, len(cands)),
		Stats:     queryStats(st),
	}
	for i, c := range cands {
		resp.Neighbors[i] = Neighbor{ID: c.ID, Dist: c.Dist}
	}
	return json.Marshal(resp)
}

func queryStats(st vindex.Stats) QueryStats {
	return QueryStats{
		DistComputations:  st.DistComputations,
		PartitionsScanned: st.PartitionsScanned,
		PartitionsPruned:  st.PartitionsPruned,
	}
}

// validatePoint rejects queries the index cannot answer meaningfully:
// empty points, dimension mismatches, and non-finite coordinates.
func validatePoint(q vector.Point, dim int) error {
	if len(q) == 0 {
		return fmt.Errorf("empty query point")
	}
	if len(q) != dim {
		return fmt.Errorf("query point has %d dimensions, index has %d", len(q), dim)
	}
	if !q.IsFinite() {
		return fmt.Errorf("query point has a non-finite coordinate")
	}
	return nil
}

func (s *Server) writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	s.errCount.Add(1)
	s.mErrors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// decode reads a request body into dst under the configured byte
// budget, answering 413/400 itself on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeErr(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", mbe.Limit)
			return false
		}
		s.writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// batchChunk is how many cache-missing batch queries share one round-
// lockstep index call (and one worker-pool token). Large enough that
// co-located queries amortize partition panel sweeps, small enough that
// a MaxBatch-sized request still fans out across the worker pool.
const batchChunk = 32

// clampK bounds k by the index size: an index can never return more
// than Len neighbors, so every k ≥ Len asks the same query and shares
// one cache entry. Results for any clamped k are the complete neighbor
// list.
func clampK(k, n int) int {
	if k > n {
		return n
	}
	return k
}

// queryKNN answers one kNN query against snap on the worker pool,
// returning the response body, whether it was served from cache, and
// the query's work accounting (zero on a cache hit — the hit's stats
// live inside the cached body).
func (s *Server) queryKNN(ctx context.Context, snap *snapshot, q vector.Point, k int) ([]byte, bool, vindex.Stats, error) {
	key := ""
	if snap.cache != nil {
		key = cacheKey(q, k)
		if body, ok := snap.cache.get(key); ok {
			s.mCacheHits.Inc()
			return body, true, vindex.Stats{}, nil
		}
		s.mCacheMiss.Inc()
	}
	s.sem <- struct{}{}
	res, st, err := snap.be.KNNWithStats(ctx, q, k)
	<-s.sem
	if err != nil {
		return nil, false, st, fmt.Errorf("%w: %v", errBackend, err)
	}
	s.distComps.Add(st.DistComputations)
	s.mDistComps.Add(st.DistComputations)
	body, err := MarshalKNN(res, st)
	if err != nil {
		return nil, false, st, err
	}
	if snap.cache != nil {
		snap.cache.put(key, body)
	}
	return body, false, st, nil
}

// writeQueryErr maps a query failure to its status: backend failures
// (only a remote backend can produce one) are 502, marshal failures 500.
func (s *Server) writeQueryErr(w http.ResponseWriter, err error) {
	if errors.Is(err, errBackend) {
		s.writeErr(w, http.StatusBadGateway, "%v", err)
		return
	}
	s.writeErr(w, http.StatusInternalServerError, "marshal response: %v", err)
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req KNNRequest
	if !s.decode(w, r, &req) {
		return
	}
	span := s.tracer.StartSpan("knn", obs.SpanContext{})
	defer span.End()
	snap := s.snap.Load()
	if err := validatePoint(req.Point, snap.be.Dim()); err != nil {
		span.SetAttr("outcome", "bad-request")
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.K < 1 {
		span.SetAttr("outcome", "bad-request")
		s.writeErr(w, http.StatusBadRequest, "k must be at least 1, got %d", req.K)
		return
	}
	span.SetAttr("k", fmt.Sprint(req.K))
	t0 := time.Now()
	ctx := obs.ContextWithSpan(r.Context(), span)
	body, hit, st, err := s.queryKNN(ctx, snap, req.Point, clampK(req.K, snap.be.Len()))
	if err != nil {
		span.SetAttr("outcome", "error")
		s.writeQueryErr(w, err)
		return
	}
	annotateQuery(span, hit, st)
	s.lat.add(float64(time.Since(t0).Nanoseconds()) / 1e6)
	s.knnCount.Add(1)
	s.mKNN.Inc()
	writeJSON(w, http.StatusOK, body)
}

// annotateQuery stamps a request span with the cache outcome and the
// query's work accounting (QueryStats); cache hits carry no fresh
// accounting — the hit's stats are inside the cached body.
func annotateQuery(span *obs.Span, hit bool, st vindex.Stats) {
	if span == nil {
		return
	}
	span.SetAttr("outcome", "ok")
	if hit {
		span.SetAttr("cache", "hit")
		return
	}
	span.SetAttr("cache", "miss")
	span.SetAttr("dist_computations", fmt.Sprint(st.DistComputations))
	span.SetAttr("partitions_scanned", fmt.Sprint(st.PartitionsScanned))
	span.SetAttr("partitions_pruned", fmt.Sprint(st.PartitionsPruned))
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req RangeRequest
	if !s.decode(w, r, &req) {
		return
	}
	span := s.tracer.StartSpan("range", obs.SpanContext{})
	defer span.End()
	snap := s.snap.Load()
	if err := validatePoint(req.Point, snap.be.Dim()); err != nil {
		span.SetAttr("outcome", "bad-request")
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Radius < 0 || math.IsNaN(req.Radius) {
		span.SetAttr("outcome", "bad-request")
		s.writeErr(w, http.StatusBadRequest, "radius must be non-negative, got %v", req.Radius)
		return
	}
	span.SetAttr("radius", fmt.Sprint(req.Radius))
	t0 := time.Now()
	s.sem <- struct{}{}
	objs, st, qerr := snap.be.RangeWithStats(obs.ContextWithSpan(r.Context(), span), req.Point, req.Radius)
	<-s.sem
	if qerr != nil {
		span.SetAttr("outcome", "error")
		s.writeQueryErr(w, fmt.Errorf("%w: %v", errBackend, qerr))
		return
	}
	s.distComps.Add(st.DistComputations)
	s.mDistComps.Add(st.DistComputations)
	annotateQuery(span, false, st)
	resp := RangeResponse{Objects: make([]RangeObject, len(objs)), Stats: queryStats(st)}
	for i, o := range objs {
		resp.Objects[i] = RangeObject{ID: o.ID, Point: o.Point}
	}
	body, err := json.Marshal(resp)
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "marshal response: %v", err)
		return
	}
	s.lat.add(float64(time.Since(t0).Nanoseconds()) / 1e6)
	s.rangeCount.Add(1)
	s.mRange.Inc()
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.writeErr(w, http.StatusBadRequest, "batch has no queries")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		s.writeErr(w, http.StatusBadRequest, "batch of %d queries exceeds the %d limit",
			len(req.Queries), s.cfg.MaxBatch)
		return
	}
	span := s.tracer.StartSpan("batch", obs.SpanContext{})
	defer span.End()
	span.SetAttr("queries", fmt.Sprint(len(req.Queries)))
	ctx := obs.ContextWithSpan(r.Context(), span)
	// One snapshot for the whole batch: a concurrent reload must not
	// split a batch across index generations.
	snap := s.snap.Load()
	for i, q := range req.Queries {
		if err := validatePoint(q.Point, snap.be.Dim()); err != nil {
			s.writeErr(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
		if q.K < 1 {
			s.writeErr(w, http.StatusBadRequest, "query %d: k must be at least 1, got %d", i, q.K)
			return
		}
	}
	// Cache pass first, then the misses ride the index's round-lockstep
	// batch API in chunks: queries of one chunk share each partition's
	// cache-sized panel sweeps (one worker token per chunk, so a big
	// batch still spreads across the pool). Per-query results and stats
	// are exactly those of sequential KNNWithStats calls, so a batch-
	// filled cache entry is byte-identical to the /knn miss that would
	// have filled it.
	results := make([]json.RawMessage, len(req.Queries))
	queryErrs := make([]error, len(req.Queries))
	keys := make([]string, len(req.Queries))
	misses := make([]int, 0, len(req.Queries))
	for i, q := range req.Queries {
		if snap.cache == nil {
			misses = append(misses, i)
			continue
		}
		t0 := time.Now()
		keys[i] = cacheKey(q.Point, clampK(q.K, snap.be.Len()))
		if body, ok := snap.cache.get(keys[i]); ok {
			s.mCacheHits.Inc()
			s.lat.add(float64(time.Since(t0).Nanoseconds()) / 1e6)
			results[i] = body
		} else {
			s.mCacheMiss.Inc()
			misses = append(misses, i)
		}
	}
	span.SetAttr("cache_hits", fmt.Sprint(len(req.Queries)-len(misses)))
	span.SetAttr("cache_misses", fmt.Sprint(len(misses)))
	var wg sync.WaitGroup
	for c := 0; c < len(misses); c += batchChunk {
		chunk := misses[c:min(c+batchChunk, len(misses))]
		wg.Add(1)
		go func(chunk []int) {
			defer wg.Done()
			t0 := time.Now()
			pts := make([]vector.Point, len(chunk))
			ks := make([]int, len(chunk))
			for x, i := range chunk {
				pts[x] = req.Queries[i].Point
				ks[x] = clampK(req.Queries[i].K, snap.be.Len())
			}
			s.sem <- struct{}{}
			res, sts, err := snap.be.KNNBatchWithStats(ctx, pts, ks)
			<-s.sem
			if err != nil {
				qerr := fmt.Errorf("%w: %v", errBackend, err)
				for _, i := range chunk {
					queryErrs[i] = qerr
				}
				return
			}
			// Each query of the chunk waited the chunk's wall time for
			// its answer, so that is its recorded latency.
			elapsed := float64(time.Since(t0).Nanoseconds()) / 1e6
			for x, i := range chunk {
				s.distComps.Add(sts[x].DistComputations)
				s.mDistComps.Add(sts[x].DistComputations)
				body, err := MarshalKNN(res[x], sts[x])
				if err != nil {
					queryErrs[i] = err
					continue
				}
				if snap.cache != nil {
					snap.cache.put(keys[i], body)
				}
				results[i] = body
				s.lat.add(elapsed)
			}
		}(chunk)
	}
	wg.Wait()
	for i, err := range queryErrs {
		if err != nil {
			span.SetAttr("outcome", "error")
			if errors.Is(err, errBackend) {
				s.writeErr(w, http.StatusBadGateway, "query %d: %v", i, err)
			} else {
				s.writeErr(w, http.StatusInternalServerError, "query %d: marshal response: %v", i, err)
			}
			return
		}
	}
	span.SetAttr("outcome", "ok")
	s.batchCount.Add(1)
	s.batchQueries.Add(int64(len(req.Queries)))
	s.mBatch.Inc()
	s.mBatchQs.Add(int64(len(req.Queries)))
	body, err := json.Marshal(BatchResponse{Results: results})
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "marshal response: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	path := req.Path
	if path == "" {
		path = s.snap.Load().source
	}
	if path == "" {
		s.writeErr(w, http.StatusBadRequest,
			"no path given and the current snapshot was not loaded from a file")
		return
	}
	loader := s.cfg.Loader
	if loader == nil {
		loader = func(path string) (Backend, error) {
			ix, err := vindex.LoadFile(path)
			if err != nil {
				return nil, err
			}
			return indexBackend{ix}, nil
		}
	}
	be, err := loader(path)
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, "loading %s: %v", path, err)
		return
	}
	s.SwapBackend(be, path)
	body, _ := json.Marshal(ReloadResponse{
		Objects: be.Len(), Partitions: be.NumPartitions(), Source: path,
	})
	writeJSON(w, http.StatusOK, body)
}

// QueryCounts breaks the served query totals down by endpoint.
type QueryCounts struct {
	// KNN counts /knn requests; Range /range; Batch whole /knn/batch
	// requests and BatchQueries the queries inside them; Errors every
	// non-2xx answer.
	KNN int64 `json:"knn"`
	// Range counts /range requests.
	Range int64 `json:"range"`
	// Batch counts /knn/batch requests.
	Batch int64 `json:"batch"`
	// BatchQueries counts individual queries inside batches.
	BatchQueries int64 `json:"batch_queries"`
	// Errors counts non-2xx answers across all endpoints.
	Errors int64 `json:"errors"`
}

// LatencyQuantiles summarizes the latency ring in milliseconds.
type LatencyQuantiles struct {
	// Count is the number of recorded query latencies (capped at the
	// ring size for the quantiles themselves).
	Count int64 `json:"count"`
	// P50, P90 and P99 are nearest-rank quantiles over the ring.
	P50 float64 `json:"p50"`
	// P90 is the 90th-percentile latency.
	P90 float64 `json:"p90"`
	// P99 is the 99th-percentile latency.
	P99 float64 `json:"p99"`
}

// CacheStats reports the current snapshot's result cache.
type CacheStats struct {
	// Hits and Misses count lookups against the current snapshot's cache.
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to compute.
	Misses int64 `json:"misses"`
	// HitRate is Hits/(Hits+Misses), 0 when no lookups happened.
	HitRate float64 `json:"hit_rate"`
	// Entries is the live entry count; Capacity the configured bound.
	Entries int `json:"entries"`
	// Capacity is the configured maximum entry count (0 = disabled).
	Capacity int `json:"capacity"`
}

// IndexInfo describes the current snapshot.
type IndexInfo struct {
	// Objects is the indexed object count.
	Objects int `json:"objects"`
	// Partitions is the pivot count.
	Partitions int `json:"partitions"`
	// Dim is the dimensionality of the indexed points.
	Dim int `json:"dim"`
	// Source is the index file backing the snapshot ("" if built
	// in-process).
	Source string `json:"source,omitempty"`
}

// StatsResponse is the body of /stats.
type StatsResponse struct {
	// UptimeSeconds is the time since New.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Queries are the per-endpoint counters.
	Queries QueryCounts `json:"queries"`
	// LatencyMs are the per-query latency quantiles.
	LatencyMs LatencyQuantiles `json:"latency_ms"`
	// Cache reports the current snapshot's result cache.
	Cache CacheStats `json:"cache"`
	// DistComputations totals the distance evaluations of every cache
	// miss served so far.
	DistComputations int64 `json:"dist_computations"`
	// Reloads counts snapshot swaps.
	Reloads int64 `json:"reloads"`
	// Index describes the current snapshot.
	Index IndexInfo `json:"index"`
}

// Stats assembles the current /stats payload (exported so tools can
// read it without an HTTP round trip).
func (s *Server) Stats() StatsResponse {
	snap := s.snap.Load()
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Queries: QueryCounts{
			KNN:          s.knnCount.Load(),
			Range:        s.rangeCount.Load(),
			Batch:        s.batchCount.Load(),
			BatchQueries: s.batchQueries.Load(),
			Errors:       s.errCount.Load(),
		},
		DistComputations: s.distComps.Load(),
		Reloads:          s.reloads.Load(),
		Index: IndexInfo{
			Objects:    snap.be.Len(),
			Partitions: snap.be.NumPartitions(),
			Dim:        snap.be.Dim(),
			Source:     snap.source,
		},
	}
	resp.LatencyMs.Count, resp.LatencyMs.P50, resp.LatencyMs.P90, resp.LatencyMs.P99 = s.lat.quantiles()
	if snap.cache != nil {
		hits, misses, entries := snap.cache.stats()
		resp.Cache = CacheStats{Hits: hits, Misses: misses, Entries: entries, Capacity: s.cfg.CacheSize}
		if total := hits + misses; total > 0 {
			resp.Cache.HitRate = float64(hits) / float64(total)
		}
	}
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body, err := json.Marshal(s.Stats())
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "marshal stats: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// HealthResponse is the body of /healthz.
type HealthResponse struct {
	// Status is "ok" whenever an index is loaded.
	Status string `json:"status"`
	// Objects is the current snapshot's object count.
	Objects int `json:"objects"`
	// Partitions is the current snapshot's pivot count.
	Partitions int `json:"partitions"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	if snap == nil || snap.be == nil {
		s.writeErr(w, http.StatusServiceUnavailable, "no index loaded")
		return
	}
	body, _ := json.Marshal(HealthResponse{
		Status: "ok", Objects: snap.be.Len(), Partitions: snap.be.NumPartitions(),
	})
	writeJSON(w, http.StatusOK, body)
}

// latencyRing retains the most recent per-query latencies (milliseconds)
// in a fixed ring so /stats quantiles reflect recent traffic, not the
// whole process lifetime.
type latencyRing struct {
	mu    sync.Mutex
	buf   []float64
	next  int
	count int64 // total recorded, may exceed len(buf)

	// hist mirrors every add into the /metrics exposition histogram.
	// The ring stays authoritative for /stats (exact nearest-rank
	// quantiles over the window); the histogram trades that precision
	// for a cheap, mergeable scrape format. May be nil.
	hist *obs.Histogram
}

func (l *latencyRing) add(ms float64) {
	l.mu.Lock()
	l.buf[l.next] = ms
	l.next = (l.next + 1) % len(l.buf)
	l.count++
	l.mu.Unlock()
	l.hist.Observe(ms)
}

func (l *latencyRing) quantiles() (count int64, p50, p90, p99 float64) {
	l.mu.Lock()
	n := int(l.count)
	if n > len(l.buf) {
		n = len(l.buf)
	}
	sample := append([]float64(nil), l.buf[:n]...)
	count = l.count
	l.mu.Unlock()
	if n == 0 {
		return count, 0, 0, 0
	}
	// One sort, three nearest-rank reads — /stats is polled by monitors,
	// so don't re-sort per quantile (stats.Quantile copies and sorts its
	// input on every call).
	sort.Float64s(sample)
	rank := func(q float64) float64 {
		idx := int(math.Ceil(q*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		return sample[idx]
	}
	return count, rank(0.50), rank(0.90), rank(0.99)
}
