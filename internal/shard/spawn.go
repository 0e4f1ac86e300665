package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

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
	// Dir holds the replica address files (default: a temp dir removed
	// on Close).
	Dir string
	// StartTimeout bounds waiting for every replica to publish its
	// address and pass a health check (default 30s).
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
	cfg    ClusterConfig
	dir    string
	ownDir bool

	meta   *vindex.Index // routing-only view of the current generation
	owner  []int         // cell → shard
	assign [][]int       // shard → cells
	gen    int64         // newest generation number handed out
	live   int64         // generation the router routes; replicas never evict it

	mu    sync.Mutex
	procs []*replicaProc
	eps   [][]string // [shard][replica] base URL
}

// replicaProc is one spawned replica process. A goroutine waits on it
// from the start, so a replica that dies while the cluster starts is
// noticed at once and reported with the last lines it wrote to stderr.
type replicaProc struct {
	shard, replica int
	cmd            *exec.Cmd
	stderr         stderrTail
	exited         chan struct{} // closed once cmd.Wait has returned
	err            error         // cmd.Wait's result, set before exited closes
}

// stderrTail keeps the last bytes written to it.
type stderrTail struct{ b []byte }

func (t *stderrTail) Write(p []byte) (int, error) {
	const keep = 4 << 10
	t.b = append(t.b, p...)
	if len(t.b) > keep {
		t.b = t.b[len(t.b)-keep:]
	}
	return len(p), nil
}

// exitErr returns the error of a replica that has exited, or nil while
// it runs.
func (p *replicaProc) exitErr() error {
	select {
	case <-p.exited:
	default:
		return nil
	}
	msg := strings.TrimSpace(string(p.stderr.b))
	if i := strings.LastIndexByte(msg, '\n'); i >= 0 {
		msg = msg[i+1:]
	}
	return fmt.Errorf("shard %d replica %d exited before serving (%v): %s", p.shard, p.replica, p.err, msg)
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
	c := &Cluster{cfg: cfg, meta: meta, owner: owner, assign: assign, gen: 1, live: 1, dir: cfg.Dir}
	if c.dir == "" {
		if c.dir, err = os.MkdirTemp("", "knnshard-*"); err != nil {
			return nil, err
		}
		c.ownDir = true
	}
	exe, err := os.Executable()
	if err != nil {
		c.cleanup()
		return nil, err
	}
	addrFiles := make([][]string, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		addrFiles[s] = make([]string, cfg.Replicas)
		for r := 0; r < cfg.Replicas; r++ {
			addrFiles[s][r] = filepath.Join(c.dir, fmt.Sprintf("shard-%d-%d.addr", s, r))
			raw, err := json.Marshal(procConfig{
				Index: cfg.IndexPath, Cells: assign[s], Shard: s, Replica: r,
				Gen: 1, AddrFile: addrFiles[s][r], Faults: cfg.Faults,
				TraceDir: cfg.TraceDir, Pprof: cfg.Pprof,
			})
			if err != nil {
				c.Close()
				return nil, err
			}
			p := &replicaProc{shard: s, replica: r, cmd: exec.Command(exe), exited: make(chan struct{})}
			p.cmd.Env = append(os.Environ(), shardEnv+"="+string(raw))
			p.cmd.Stdout, p.cmd.Stderr = os.Stderr, io.MultiWriter(os.Stderr, &p.stderr)
			if err := p.cmd.Start(); err != nil {
				c.Close()
				return nil, fmt.Errorf("spawning shard %d replica %d: %w", s, r, err)
			}
			go func() {
				p.err = p.cmd.Wait()
				close(p.exited)
			}()
			c.procs = append(c.procs, p)
		}
	}
	if err := c.await(addrFiles); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// await polls for every replica's address file, then health-checks it.
// Every poll first checks that no replica has exited.
func (c *Cluster) await(addrFiles [][]string) error {
	deadline := time.Now().Add(c.cfg.StartTimeout)
	c.eps = make([][]string, len(addrFiles))
	client := &http.Client{Timeout: 2 * time.Second}
	for s := range addrFiles {
		c.eps[s] = make([]string, len(addrFiles[s]))
		for r, file := range addrFiles[s] {
			for {
				if err := c.exitErr(); err != nil {
					return err
				}
				raw, err := os.ReadFile(file)
				if err == nil && len(raw) > 0 {
					c.eps[s][r] = "http://" + strings.TrimSpace(string(raw))
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("shard %d replica %d: no address after %v", s, r, c.cfg.StartTimeout)
				}
				time.Sleep(10 * time.Millisecond)
			}
			for {
				if err := c.exitErr(); err != nil {
					return err
				}
				resp, err := client.Get(c.eps[s][r] + "/healthz")
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						break
					}
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("shard %d replica %d: unhealthy after %v", s, r, c.cfg.StartTimeout)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	return nil
}

// exitErr returns the error of the first replica found to have exited.
func (c *Cluster) exitErr() error {
	for _, p := range c.procs {
		if err := p.exitErr(); err != nil {
			return err
		}
	}
	return nil
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

func (c *Cluster) cleanup() {
	if c.ownDir {
		os.RemoveAll(c.dir)
	}
}

// Close kills every replica process, reaps it, and removes the scratch
// dir when the cluster created it.
func (c *Cluster) Close() {
	for _, p := range c.procs {
		p.cmd.Process.Kill()
	}
	for _, p := range c.procs {
		<-p.exited
	}
	c.cleanup()
}
