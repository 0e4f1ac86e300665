package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a process's metric families and renders them in
// Prometheus text exposition format. All operations are safe for
// concurrent use; metric reads and writes are lock-free atomics, the
// registry lock guards only family registration.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one registered metric family: a name, its help text, a
// type, and the live metric instance.
type family struct {
	name string
	help string
	typ  string
	m    metric
}

// metric is the render hook every metric kind implements.
type metric interface {
	// collect appends the family's sample lines (without HELP/TYPE)
	// to b.
	collect(b *strings.Builder, name string)
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register installs a family or returns the existing one, panicking if
// the name was already registered as a different type (a wiring bug).
func (r *Registry) register(name, help, typ string, fresh func() metric) metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fams == nil {
		r.fams = make(map[string]*family)
	}
	if f, ok := r.fams[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", name, typ, f.typ))
		}
		return f.m
	}
	m := fresh()
	r.fams[name] = &family{name: name, help: help, typ: typ, m: m}
	return m
}

// Counter is a monotonically increasing count. A nil Counter (from a
// nil registry) is a no-op, so disabled metrics cost nothing to bump.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// collect implements metric.
func (c *Counter) collect(b *strings.Builder, name string) {
	fmt.Fprintf(b, "%s %d\n", name, c.v.Load())
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, "counter", func() metric { return &Counter{} }).(*Counter)
}

// Gauge is a value that can go up and down (queue depths, task-state
// occupancy). Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// collect implements metric.
func (g *Gauge) collect(b *strings.Builder, name string) {
	fmt.Fprintf(b, "%s %d\n", name, g.v.Load())
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, "gauge", func() metric { return &Gauge{} }).(*Gauge)
}

// DefaultLatencyBuckets are the fixed histogram bounds (milliseconds)
// used for request-latency families: sub-millisecond through 10s.
var DefaultLatencyBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Histogram is a fixed-bucket histogram. Bucket counts are atomic
// int64s; the float64 sum is maintained with a CAS loop over its bit
// pattern, so Observe never takes a lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) estimated from the
// bucket counts: the upper bound of the bucket holding the q-th
// observation. Returns 0 when empty. The estimate is exact when all
// observations in the selected bucket equal its bound and otherwise
// errs toward the bound — good enough for the /stats snapshot the
// serve tier publishes.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			// Overflow bucket: no finite upper bound; report the
			// largest finite bound as the floor of the estimate.
			return h.bounds[len(h.bounds)-1]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// collect implements metric, emitting cumulative le buckets, _sum and
// _count per the Prometheus histogram convention.
func (h *Histogram) collect(b *strings.Builder, name string) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d\n", name, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	// _count is the +Inf bucket just rendered, not h.count: an Observe
	// landing between the two loads would make the page contradict itself.
	fmt.Fprintf(b, "%s_count %d\n", name, cum)
}

// Histogram returns the named histogram with the given bucket upper
// bounds (sorted ascending; a +Inf overflow bucket is implicit),
// registering it on first use. Passing nil bounds uses
// DefaultLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	return r.register(name, help, "histogram", func() metric {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	}).(*Histogram)
}

// Render writes every registered family in Prometheus text exposition
// format, families sorted by name for deterministic output.
func (r *Registry) Render() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		f.m.collect(&b, f.name)
	}
	return b.String()
}

// Handler returns the GET /metrics handler serving the registry in
// text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Render()))
	})
}
