package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"knnjoin/internal/proc"
	"knnjoin/internal/vindex"
)

// ClusterConfig configures StartCluster.
type ClusterConfig struct {
	// IndexPath is the index file every replica decodes its own cells
	// from (built by `knnindex build` or vindex.Save); the router reads
	// only its pivots and summary.
	IndexPath string
	// Shards is the number of shards the cells are partitioned across.
	Shards int
	// Replicas is the number of identical processes per shard (default 1).
	Replicas int
	// Faults is the deterministic fault plan shipped to every replica.
	Faults *FaultPlan
	// StartTimeout bounds waiting for every replica to report that it
	// is serving (default 30s).
	StartTimeout time.Duration
	// TraceDir, when set, makes every replica write scan spans as JSONL
	// there; pair it with a router tracer over the same directory so
	// cmd/knntrace can merge one coherent trace.
	TraceDir string
	// Pprof exposes /debug/pprof on every replica.
	Pprof bool
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.StartTimeout <= 0 {
		c.StartTimeout = 30 * time.Second
	}
	return c
}

// Cluster is a running set of Shards×Replicas shard processes plus the
// cell assignment that routes to them. Start with StartCluster, stop
// with Close.
type Cluster struct {
	cfg ClusterConfig

	meta   *vindex.Index // routing-only view of the current generation
	owner  []int         // cell → shard
	assign [][]int       // shard → cells
	gen    int64         // newest generation number handed out
	live   int64         // generation the router routes; replicas never evict it

	mu    sync.Mutex
	procs []*proc.Child // shard-major: shard s replica r at s*Replicas+r
	eps   [][]string    // [shard][replica] base URL
}

// StartCluster loads the index's metadata — pivots and summary, no
// object records — partitions its cells with AssignCells, re-executes
// the current binary once per replica (the child enters
// RunShardIfSpawned and decodes only its own cells), and waits until
// every replica is serving. A replica that exits first, say on a
// damaged record in one of its cells, fails the start at once with the
// replica's error.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: cluster needs at least 1 shard, got %d", cfg.Shards)
	}
	meta, err := vindex.LoadFile(cfg.IndexPath, vindex.NoCells)
	if err != nil {
		return nil, err
	}
	owner, assign := AssignCells(meta, cfg.Shards)
	c := &Cluster{cfg: cfg, meta: meta, owner: owner, assign: assign, gen: 1, live: 1}
	for s := 0; s < cfg.Shards; s++ {
		for r := 0; r < cfg.Replicas; r++ {
			p, err := proc.Start(fmt.Sprintf("shard %d replica %d", s, r), shardEnv, procConfig{
				Index: cfg.IndexPath, Cells: assign[s], Shard: s, Replica: r,
				Gen: 1, Faults: cfg.Faults, TraceDir: cfg.TraceDir, Pprof: cfg.Pprof,
			})
			if err != nil {
				c.Close()
				return nil, err
			}
			c.procs = append(c.procs, p)
		}
	}
	// Each replica's ready line is the address it listens on.
	addrs, err := proc.Ready(c.procs, cfg.StartTimeout)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.eps = make([][]string, cfg.Shards)
	for i, addr := range addrs {
		c.eps[i/cfg.Replicas] = append(c.eps[i/cfg.Replicas], "http://"+addr)
	}
	return c, nil
}

// Meta returns the routing-only index view of the generation the
// cluster started with.
func (c *Cluster) Meta() *vindex.Index { return c.meta }

// Owner returns the cell → shard map of the initial generation.
func (c *Cluster) Owner() []int { return c.owner }

// Assignment returns the per-shard cell lists of the initial generation.
func (c *Cluster) Assignment() [][]int { return c.assign }

// Endpoints returns the per-shard replica base URLs.
func (c *Cluster) Endpoints() [][]string { return c.eps }

// Gen returns the initial generation number.
func (c *Cluster) Gen() int64 { return c.gen }

// Reload loads a new index file's metadata, recomputes the cell
// assignment, and pushes the new generation to every replica of every
// shard, each of which decodes and validates its own cells. Each
// request names the generation the router routes now, and a replica
// keeps it beside the newest one whatever else it evicts, so walks in
// flight keep completing consistently. It returns the new routing
// state for the router to swap in atomically. Every replica must be
// reachable: a reload is an administrative operation against a healthy
// cluster, and on failure — an unreachable replica, or a damaged
// record in some replica's cells — the router keeps routing the old
// generation, which every replica still holds however many reloads
// fail in a row. A failed generation's number is never reused.
func (c *Cluster) Reload(path string) (meta *vindex.Index, owner []int, gen int64, err error) {
	meta, err = vindex.LoadFile(path, vindex.NoCells)
	if err != nil {
		return nil, nil, 0, err
	}
	owner, assign := AssignCells(meta, c.cfg.Shards)
	c.mu.Lock()
	c.gen++
	gen, live := c.gen, c.live
	c.mu.Unlock()
	client := &http.Client{Timeout: c.cfg.StartTimeout}
	for s := range c.eps {
		body, err := json.Marshal(ReloadShardRequest{Gen: gen, Live: live, Index: path, Cells: assign[s]})
		if err != nil {
			return nil, nil, 0, err
		}
		for r, url := range c.eps[s] {
			resp, err := client.Post(url+"/shard/reload", "application/json", strings.NewReader(string(body)))
			if err != nil {
				return nil, nil, 0, fmt.Errorf("reloading shard %d replica %d: %w", s, r, err)
			}
			raw := make([]byte, 512)
			n, _ := resp.Body.Read(raw)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, nil, 0, fmt.Errorf("reloading shard %d replica %d: status %d: %s", s, r, resp.StatusCode, raw[:n])
			}
		}
	}
	c.mu.Lock()
	c.live = gen
	c.mu.Unlock()
	return meta, owner, gen, nil
}

// Close kills every replica process and reaps it.
func (c *Cluster) Close() { proc.Kill(c.procs...) }
