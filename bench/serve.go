package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// server is one running knnserve (with its shard processes, if any).
type server struct {
	cmd  *exec.Cmd
	addr string
}

// startServer starts knnserve on a port the kernel picks and returns
// once /healthz answers 200. -workers 2 and -cache 1024 are the
// deployment every workload uses; extra adds topology or tracing flags.
// From here until stopServer the harness and the server's process tree
// share one CPU (see affinity.go).
func (r *runner) startServer(index string, extra ...string) (srv *server, err error) {
	args := append([]string{"-index", index, "-addr", "127.0.0.1:0", "-workers", "2", "-cache", "1024"}, extra...)
	cmd := exec.Command(r.bin("knnserve"), args...)
	ef, err := r.kids.stderrFile("knnserve")
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	cmd.Stderr = ef
	if err := confine(r.oneCPU); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			confine(r.allCPUs)
		}
	}()
	if err := r.kids.start(cmd); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd}
	if mask, err := affinityOf(cmd.Process.Pid); err == nil {
		r.serverCPUs = mask.count()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if s.addr == "" {
			s.addr = listenAddr(ef.Name())
		}
		if s.addr != "" {
			if status, _, err := get(s.addr, "/healthz"); err == nil && status == 200 {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			r.kids.stop(cmd, time.Second)
			raw, _ := os.ReadFile(ef.Name())
			return nil, fmt.Errorf("knnserve %s: not ready after 30s\n%s", strings.Join(args, " "), tail(string(raw), 2000))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// listenAddr finds the "... on 127.0.0.1:PORT" line knnserve prints once
// it listens.
func listenAddr(stderrPath string) string {
	raw, err := os.ReadFile(stderrPath)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "knnserve: serving ") {
			if i := strings.LastIndex(line, " on "); i >= 0 {
				return strings.TrimSpace(line[i+4:])
			}
		}
	}
	return ""
}

func (r *runner) stopServer(s *server) {
	if s != nil {
		r.kids.stop(s.cmd, 5*time.Second)
		confine(r.allCPUs)
	}
}

func (r *runner) serveArgs(extra ...string) []string {
	return append(append([]string(nil), r.w.ServeFlags...), extra...)
}

// setup is what a user does between having a CSV and being able to ask:
// build the index, start the server (and its shards), wait for /healthz.
func (r *runner) setup(in inputs, i int, parent string) (*server, string, float64, error) {
	sp := r.tr.begin("setup", parent)
	defer r.tr.end(sp)
	index := filepath.Join(r.dir, fmt.Sprintf("index-%d.idx", i))
	t0 := time.Now()
	b := r.tr.begin("knnindex build", sp)
	_, err := r.kids.run(r.bin("knnindex"), []string{"build", "-data", in.S, "-o", index}, "")
	r.tr.end(b)
	if err != nil {
		return nil, "", 0, err
	}
	st := r.tr.begin("knnserve start", sp)
	srv, err := r.startServer(index, r.serveArgs()...)
	r.tr.end(st)
	if err != nil {
		return nil, "", 0, err
	}
	return srv, index, time.Since(t0).Seconds(), nil
}

// sample is one request of the closed loop.
type sample struct {
	at   time.Duration // completion, since the phase began
	lat  time.Duration
	idx  uint32 // pool entry asked
	hash uint64 // of the reply bytes
	ok   bool
}

// stream is the run's request sequence. It survives server restarts: a
// new phase continues where the last one stopped.
type stream struct {
	p       *pool
	reqs    [][]byte
	pos     int
	samples []sample
	seed    maphash.Seed
}

func newStream(p *pool) *stream {
	st := &stream{p: p, reqs: make([][]byte, len(p.Bodies)), seed: maphash.MakeSeed()}
	for i, b := range p.Bodies {
		st.reqs[i] = request("POST", "/knn", "bench", b)
	}
	st.samples = make([]sample, 0, 1<<20)
	return st
}

// runFor keeps exactly one request in flight on one connection for d and
// returns the samples it took. The collector is off meanwhile: the
// caller is the measuring instrument.
func (st *stream) runFor(addr string, d time.Duration) ([]sample, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	from := len(st.samples)
	start := time.Now()
	for {
		idx := st.p.Stream[st.pos%len(st.p.Stream)]
		st.pos++
		t0 := time.Now()
		status, body, err := c.roundTrip(st.reqs[idx])
		t1 := time.Now()
		if err != nil {
			return st.samples[from:], fmt.Errorf("/knn: %w", err)
		}
		st.samples = append(st.samples, sample{
			at: t1.Sub(start), lat: t1.Sub(t0), idx: idx,
			hash: maphash.Bytes(st.seed, body), ok: status == 200,
		})
		if t1.Sub(start) >= d {
			return st.samples[from:], nil
		}
	}
}

// sliceStat summarises the requests that completed in one slice.
type sliceStat struct {
	N             int
	RPS, P50, P90 float64 // 1/s, ms, ms
}

func (s sliceStat) rps() float64 { return s.RPS }
func (s sliceStat) p50() float64 { return s.P50 }
func (s sliceStat) p90() float64 { return s.P90 }

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cut splits a phase's samples into n slices of length d by completion
// time.
func cut(samples []sample, n int, d time.Duration) []sliceStat {
	lats := make([][]float64, n)
	for _, s := range samples {
		if i := int(s.at / d); i < n {
			lats[i] = append(lats[i], msOf(s.lat))
		}
	}
	out := make([]sliceStat, n)
	for i, l := range lats {
		sort.Float64s(l)
		out[i] = sliceStat{N: len(l), RPS: float64(len(l)) / d.Seconds(), P50: rank(l, 0.5), P90: rank(l, 0.9)}
	}
	return out
}

func column(slices []sliceStat, f func(sliceStat) float64) []float64 {
	out := make([]float64, len(slices))
	for i, s := range slices {
		out[i] = f(s)
	}
	return out
}

// serve runs the warm-up and n timed slices against srv.
func (r *runner) serve(st *stream, srv *server, n int, name, parent string) ([]sliceStat, []sample, error) {
	sp := r.tr.begin(name, parent)
	defer r.tr.end(sp)
	w := r.tr.begin("warm-up", sp)
	_, err := st.runFor(srv.addr, r.sc.Warm)
	r.tr.end(w)
	if err != nil {
		return nil, nil, err
	}
	t := r.tr.begin("timed slices", sp)
	samples, err := st.runFor(srv.addr, time.Duration(n)*r.sc.SliceDur)
	r.tr.end(t, "requests", fmt.Sprint(len(samples)))
	if err != nil {
		return nil, nil, err
	}
	return cut(samples, n, r.sc.SliceDur), samples, nil
}

// checkStream counts the stream's requests and verifies, after the fact,
// that every reply for one pool entry had the same bytes each time it was
// seen — a cache hit is the miss that filled it, on this server and
// on the next one started over the same index.
func (r *runner) checkStream(st *stream) {
	first := make(map[uint32]uint64)
	for _, s := range st.samples {
		r.check(s.ok, "/knn for pool entry %d was refused", s.idx)
		if h, seen := first[s.idx]; seen {
			r.check(h == s.hash, "/knn replies for pool entry %d differ between sightings", s.idx)
		} else {
			first[s.idx] = s.hash
		}
	}
}

// ask sends the verification queries one by one and keeps the replies.
func (r *runner) ask(srv *server, ids []int, p *pool) ([][]byte, error) {
	c, err := dial(srv.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	out := make([][]byte, len(ids))
	for i, id := range ids {
		status, body, err := c.do("POST", "/knn", p.Bodies[id])
		if err != nil {
			return nil, fmt.Errorf("/knn: %w", err)
		}
		r.check(status == 200, "verification query %d answered %d", id, status)
		out[i] = append([]byte(nil), body...)
	}
	return out, nil
}

type knnReply struct {
	Neighbors []struct {
		ID   int64   `json:"id"`
		Dist float64 `json:"dist"`
	} `json:"neighbors"`
}

// checkReplies compares each verification reply's distances with brute
// force. Distances, not ids: Forest is integer-valued, and which of
// several equidistant points is returned is the algorithm's choice.
func (r *runner) checkReplies(replies [][]byte, ids []int, truth map[int64][]float64) {
	for i, raw := range replies {
		var rep knnReply
		if err := json.Unmarshal(raw, &rep); err != nil {
			r.check(false, "verification query %d: bad reply: %v", ids[i], err)
			continue
		}
		got := make([]float64, len(rep.Neighbors))
		for j, n := range rep.Neighbors {
			got[j] = n.Dist
		}
		r.check(sameDists(got, truth[queryIDBase+int64(i)]), "verification query %d: distances differ from brute force", ids[i])
	}
}

func sameDists(a, b []float64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if !closeRel(a[i], b[i], 1e-9) {
			return false
		}
	}
	return true
}

// batch posts /knn/batch requests of 32 queries for d and returns queries
// answered per second.
func (r *runner) batch(st *stream, srv *server, d time.Duration) (float64, error) {
	const per = 32
	c, err := dial(srv.addr)
	if err != nil {
		return 0, err
	}
	defer c.close()
	var body bytes.Buffer
	start, done := time.Now(), 0
	for time.Since(start) < d {
		body.Reset()
		body.WriteString(`{"queries":[`)
		for i := 0; i < per; i++ {
			if i > 0 {
				body.WriteByte(',')
			}
			body.Write(st.p.Bodies[st.p.Stream[st.pos%len(st.p.Stream)]])
			st.pos++
		}
		body.WriteString("]}")
		status, _, err := c.do("POST", "/knn/batch", body.Bytes())
		if err != nil {
			return 0, fmt.Errorf("/knn/batch: %w", err)
		}
		r.check(status == 200, "/knn/batch answered %d", status)
		done += per
	}
	return float64(done) / time.Since(start).Seconds(), nil
}
