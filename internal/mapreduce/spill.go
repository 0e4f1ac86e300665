package mapreduce

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"knnjoin/internal/dfs"
)

// Engine selects the execution backend of a Cluster: where map-side
// sorted runs live between the map and reduce phases.
//
// The zero value is the in-memory backend every cluster used before
// spilling existed: all runs stay resident until the job completes.
// Setting SpillDir turns on the out-of-core backend — the external
// shuffle Hadoop performs and the paper's clusters depend on (§2.2):
// completed runs are written to the spill directory as length-prefixed
// binary-key run files, and every reduce task k-way-merges them back off
// disk with a bounded amount of memory. Because runs hold the same
// key-sorted record sequence either way, a job's output is byte-identical
// across backends.
type Engine struct {
	// SpillDir is the directory for run files; each job creates (and
	// removes) a private subdirectory in it. Empty means in-memory.
	SpillDir string

	// MemLimit bounds the shuffle bytes kept resident in memory, split
	// half/half between retained runs (a map task whose completed runs
	// would push retention past limit/2 spills them to SpillDir instead)
	// and run-file I/O buffers. The buffer half is shared evenly by the
	// node-concurrent tasks, and each merge or run write divides its
	// task's share among the files it actually opens (see mergeBudget
	// and runState.bufSize); a reducer whose runs do not fit its share at
	// the 8 KiB minimum buffer merges them in passes. ≤ 0 with SpillDir
	// set spills every run and gives every file the preferred 32 KiB
	// buffer. The per-task working buffer is bounded separately, by the
	// DFS split size.
	MemLimit int64
}

// spillBufSize is the preferred I/O buffer of one open run file (or run
// writer); a merge under MemLimit opening more files than its share
// holds at this size gets smaller ones. Buffers are charged against the
// engine's resident-memory accounting while open.
const spillBufSize = 32 << 10

// minMergeBuf is the smallest per-file buffer the derived fan-in plans
// for: a reducer with more runs than its share holds at this size
// merges in passes instead of reading through ever smaller buffers.
const minMergeBuf = 8 << 10

// minSpillBuf floors the buffer size: limits so small that even this
// floor overruns them are clamped rather than honored.
const minSpillBuf = 128

// defaultFanIn bounds a merge when no MemLimit constrains it.
const defaultFanIn = 1024

// mergeBudget resolves the merge shape for a cluster of n nodes: the
// fan-in (how many runs one merge reads at once) and each task's share
// of buffer memory (0: unbounded). Half of MemLimit is reserved for
// retained runs (see retainOrSpill), the other half is split across the
// n node-concurrent tasks. A merge holds its read buffers plus, in an
// intermediate pass, one write buffer, so the fan-in is the largest
// that leaves each of fanIn+1 files minMergeBuf of the share, and at
// least 2: a reducer merges in one pass whenever its runs fit that
// budget, and in Hadoop's multi-pass merge otherwise (reduceFanIn).
// Without a MemLimit the fan-in is defaultFanIn. The buffers themselves
// are sized per merge, from the runs it opens (runState.bufSize), so
// the floor of 2 shrinks them rather than busting MemLimit. The result
// rides every task assignment, so goroutine workers and worker
// processes merge alike.
func (e Engine) mergeBudget(n int) (fanIn int, share int64) {
	if e.MemLimit <= 0 {
		return defaultFanIn, 0
	}
	share = max(e.MemLimit/2/int64(n), 1)
	return int(max(min(defaultFanIn, share/minMergeBuf-1), 2)), share
}

// validate rejects configurations that silently could not spill.
func (e Engine) validate() error {
	if e.SpillDir == "" && e.MemLimit > 0 {
		return fmt.Errorf("mapreduce: Engine.MemLimit set without Engine.SpillDir — nowhere to spill")
	}
	return nil
}

// memAccount is the resident-memory account the attempts of one job on
// goroutine workers share: the MemLimit they charge retained runs and
// open merge buffers against, and the run-file name sequence of the
// job's spill directory. A worker process gives each attempt its own —
// residency is per process there, and attempts never share a directory.
type memAccount struct {
	limit    int64
	resident atomic.Int64 // shuffle bytes currently in memory
	peak     atomic.Int64
	nameSeq  atomic.Int64
}

// updatePeak folds a residency observation into the high-water mark.
func (m *memAccount) updatePeak(n int64) {
	for {
		p := m.peak.Load()
		if n <= p || m.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// reserve charges n resident bytes and records the new high-water mark.
func (m *memAccount) reserve(n int64) { m.updatePeak(m.resident.Add(n)) }

// release returns n resident bytes.
func (m *memAccount) release(n int64) { m.resident.Add(-n) }

// runState is one task attempt's view of the backend: where its run
// files go, the merge shape it must keep to, the memory account it
// charges, and what it spilled — folded into JobStats only if the
// attempt commits.
type runState struct {
	dir   string // "" = nowhere to spill: every run stays resident
	fanIn int
	share int64 // buffer bytes for the attempt's open files; 0 = unbounded
	mem   *memAccount

	spilledRuns  int64
	spilledBytes int64
}

// bufSize is the I/O buffer of each file opened by a merge or run write
// that reads the given number of run files and writes at most one: the
// preferred spillBufSize, or the attempt's share split evenly over
// files+1 buffers when that is smaller, floored at minSpillBuf.
func (rs *runState) bufSize(files int) int {
	b := spillBufSize
	if rs.share > 0 {
		b = int(min(int64(b), rs.share/int64(files+1)))
	}
	return max(b, minSpillBuf)
}

// spilledFiles counts the runs that live in run files — the ones a
// merge opens a buffer for.
func spilledFiles(runs []runData) int {
	n := 0
	for _, run := range runs {
		if run.File != nil {
			n++
		}
	}
	return n
}

// retainOrSpill decides where a finished map attempt's sorted runs live.
// The attempt's bytes are first charged against the resident budget; if
// that would exceed the MemLimit (or the attempt always spills, as every
// attempt of a worker process does), every run goes to a run file
// instead. A run replays the identical sorted record sequence from either
// home, so the decision — which may differ across runs of a racy
// workload — can never change job output.
func (rs *runState) retainOrSpill(runs []runData) error {
	var total int64
	for _, run := range runs {
		total += kvBytes(run.kvs)
	}
	if rs.dir == "" {
		rs.mem.reserve(total)
		return nil
	}
	// Retention may use half of MemLimit; the other half belongs to the
	// merge buffers (Engine.mergeBudget), so the two together stay under
	// the limit. The charge commits only when it fits (CAS loop) — a
	// speculative add would be visible to concurrent peak observations
	// and could report a never-retained residency above the limit.
	if rs.mem.limit > 0 {
		for {
			cur := rs.mem.resident.Load()
			n := cur + total
			if n > rs.mem.limit/2 {
				break
			}
			if rs.mem.resident.CompareAndSwap(cur, n) {
				rs.mem.updatePeak(n)
				return nil
			}
		}
	}
	for r := range runs {
		if len(runs[r].kvs) == 0 {
			continue
		}
		rf, err := writeRunFile(rs, runs[r].kvs)
		if err != nil {
			return err
		}
		runs[r] = runData{File: rf}
	}
	return nil
}

// runData is one map task's sorted run for one reducer, in exactly one of
// two states: resident (kvs) or spilled (File). Both states replay the
// identical key-sorted record sequence, so the merge — and therefore the
// job output — cannot tell them apart. Only the spilled state crosses the
// wire to a worker process, which holds no other kind.
type runData struct {
	kvs  []KV
	File *runFile `json:",omitempty"`
}

// records returns the run's record count without loading it.
func (r runData) records() int64 {
	if r.File != nil {
		return r.File.Records
	}
	return int64(len(r.kvs))
}

// shuffleBytes returns the run's key+value payload bytes.
func (r runData) shuffleBytes() int64 {
	if r.File != nil {
		return r.File.Bytes
	}
	return kvBytes(r.kvs)
}

// runFile describes one spilled run: a file of length-prefixed key/value
// records in key-sorted order. Because the keys are the order-preserving
// binary encodings of internal/codec, bytewise file order equals shuffle
// order — the file needs no footer, index or re-sort to be merged.
type runFile struct {
	Path    string
	Records int64
	Bytes   int64 // key+value payload bytes
}

// kvBytes sums the shuffle payload of a run.
func kvBytes(kvs []KV) int64 {
	var n int64
	for _, kv := range kvs {
		n += int64(len(kv.Key) + len(kv.Value))
	}
	return n
}

// runFileWriter streams key-sorted records into a new run file. The file
// is written under a temporary name and renamed into place by finish, so
// a run file that exists is always complete — a crashed attempt leaves
// only a *.tmp the job-directory cleanup removes.
type runFileWriter struct {
	rs   *runState
	f    *os.File
	w    *bufio.Writer
	buf  int // write-buffer bytes charged while open
	path string
	rf   runFile
}

// newRunFileWriter opens a fresh run file in the job's spill directory
// with a buf-byte write buffer, charging it against the resident budget
// until the writer finishes or aborts.
func newRunFileWriter(rs *runState, buf int) (*runFileWriter, error) {
	path := filepath.Join(rs.dir, fmt.Sprintf("run-%06d", rs.mem.nameSeq.Add(1)))
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, fmt.Errorf("mapreduce: spill: %w", err)
	}
	rs.mem.reserve(int64(buf))
	return &runFileWriter{
		rs: rs, f: f, w: bufio.NewWriterSize(f, buf), buf: buf,
		path: path, rf: runFile{Path: path},
	}, nil
}

// append writes one record as two dfs frames: key, then value.
func (rw *runFileWriter) append(kv KV) error {
	if err := dfs.WriteFrame(rw.w, kv.Key); err != nil {
		return err
	}
	if err := dfs.WriteFrame(rw.w, kv.Value); err != nil {
		return err
	}
	rw.rf.Records++
	rw.rf.Bytes += int64(len(kv.Key) + len(kv.Value))
	return nil
}

// finish flushes, closes and atomically publishes the run file.
func (rw *runFileWriter) finish() (*runFile, error) {
	err := rw.w.Flush()
	if cerr := rw.f.Close(); err == nil {
		err = cerr
	}
	rw.rs.mem.release(int64(rw.buf))
	if err == nil {
		err = os.Rename(rw.path+".tmp", rw.path)
	}
	if err != nil {
		os.Remove(rw.path + ".tmp")
		return nil, fmt.Errorf("mapreduce: spill: %w", err)
	}
	rw.rs.spilledRuns++
	rw.rs.spilledBytes += rw.rf.Bytes
	rf := rw.rf
	return &rf, nil
}

// abort discards the partially written file.
func (rw *runFileWriter) abort() {
	rw.f.Close()
	rw.rs.mem.release(int64(rw.buf))
	os.Remove(rw.path + ".tmp")
}

// writeRunFile persists an in-memory sorted run to disk; the writer is
// the only file it opens.
func writeRunFile(rs *runState, kvs []KV) (*runFile, error) {
	rw, err := newRunFileWriter(rs, rs.bufSize(0))
	if err != nil {
		return nil, err
	}
	for _, kv := range kvs {
		if err := rw.append(kv); err != nil {
			rw.abort()
			return nil, fmt.Errorf("mapreduce: spill: %w", err)
		}
	}
	return rw.finish()
}

// runBadError marks a run file that could not be opened or that ended
// mid-record — evidence the producing attempt's output is damaged. The
// reducer reports the path back to the scheduler, which re-executes the
// producing map task.
type runBadError struct {
	path string
	msg  string
	err  error
}

func (e *runBadError) Error() string {
	return fmt.Sprintf("mapreduce: run %s %s: %v", e.path, e.msg, e.err)
}
func (e *runBadError) Unwrap() error { return e.err }

// cursor is one sorted-run stream feeding the k-way merge: the current
// record, a way to advance, and a sticky error for streams that can fail
// mid-read (disk runs). The merge drops an erroring cursor and surfaces
// the error through the merger, failing the reduce attempt — retries
// reopen the files from scratch.
type cursor interface {
	peek() (KV, bool)
	advance()
	err() error
	close()
	// size returns the records and key+value payload bytes the stream
	// holds from its start — a bound for a spilled run, exact in memory.
	size() (records, bytes int64)
}

// memCursor streams an in-memory run.
type memCursor struct {
	kvs []KV
	pos int
}

func (c *memCursor) peek() (KV, bool) {
	if c.pos >= len(c.kvs) {
		return KV{}, false
	}
	return c.kvs[c.pos], true
}
func (c *memCursor) advance()   { c.pos++ }
func (c *memCursor) err() error { return nil }
func (c *memCursor) close()     {}
func (c *memCursor) size() (int64, int64) {
	return int64(len(c.kvs)), kvBytes(c.kvs)
}

// fileCursor streams a spilled run file through a fixed read-ahead
// buffer, charged against the engine's resident-memory accounting while
// the cursor is open.
type fileCursor struct {
	rs      *runState
	f       *os.File
	r       *bufio.Reader
	buf     int // read-ahead bytes charged while open
	path    string
	left    int64 // records not yet surfaced
	records int64 // the run's record count, capped by the file's size
	bytes   int64 // the run's payload bytes, capped by the file's size
	cur     KV
	ok      bool
	failure error
}

// openRunCursor opens a spilled run for merging with a buf-byte
// read-ahead buffer.
func openRunCursor(rs *runState, rf *runFile, buf int) *fileCursor {
	c := &fileCursor{rs: rs, path: rf.Path, left: rf.Records, buf: buf}
	f, err := os.Open(rf.Path)
	if err != nil {
		c.failure = &runBadError{path: rf.Path, msg: "unreadable", err: err}
		return c
	}
	c.f = f
	st, err := f.Stat()
	if err != nil {
		f.Close()
		c.f = nil
		c.failure = &runBadError{path: rf.Path, msg: "unreadable", err: err}
		return c
	}
	// The declared counts come from the producing attempt's completion;
	// the file is what exists. Every record is at least two one-byte
	// frame headers, and its payload cannot exceed the file.
	c.records = min(rf.Records, st.Size()/minRecordFrameBytes)
	c.bytes = min(rf.Bytes, st.Size())
	c.r = bufio.NewReaderSize(f, buf)
	rs.mem.reserve(int64(buf))
	c.advance()
	return c
}

// minRecordFrameBytes is the smallest a record can be in a run file: an
// empty key and an empty value, one uvarint length byte each.
const minRecordFrameBytes = 2

func (c *fileCursor) size() (int64, int64) { return c.records, c.bytes }

func (c *fileCursor) peek() (KV, bool) { return c.cur, c.ok }

func (c *fileCursor) advance() {
	c.ok = false
	if c.failure != nil || c.left == 0 {
		return
	}
	key, err := dfs.ReadFrame(c.r)
	if err == nil {
		var val []byte
		if val, err = dfs.ReadFrame(c.r); err == nil {
			c.left--
			c.cur, c.ok = KV{Key: key, Value: val}, true
			return
		}
	}
	// A run file that ends early was partially written or truncated —
	// surface it instead of silently merging a prefix.
	c.failure = &runBadError{path: c.path, msg: "truncated mid-record", err: err}
}

func (c *fileCursor) err() error { return c.failure }

func (c *fileCursor) close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
		c.rs.mem.release(int64(c.buf))
	}
}

// openRuns turns a reducer's runs into merge cursors, charging a
// buf-byte read-ahead buffer for each run file as it opens.
func openRuns(rs *runState, runs []runData, buf int) []cursor {
	out := make([]cursor, len(runs))
	for i, run := range runs {
		if run.File != nil {
			out[i] = openRunCursor(rs, run.File, buf)
		} else {
			out[i] = &memCursor{kvs: run.kvs}
		}
	}
	return out
}

// mergeToFile merges the given runs (a contiguous seq range) into a
// single spilled run, preserving the exact record order a flat merge of
// those runs would produce. Records stream from the input cursors to the
// output writer one at a time — the pass exists to cut fan-in, so its
// memory footprint is just the open read-ahead and write buffers.
func mergeToFile(rs *runState, runs []runData) (*runFile, error) {
	buf := rs.bufSize(spilledFiles(runs))
	cursors := openRuns(rs, runs, buf)
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	m := newMerger(cursors)
	rw, err := newRunFileWriter(rs, buf)
	if err != nil {
		return nil, err
	}
	for {
		kv, ok := m.peek()
		if !ok {
			break
		}
		if err := rw.append(kv); err != nil {
			rw.abort()
			return nil, fmt.Errorf("mapreduce: spill: %w", err)
		}
		m.pop()
	}
	if err := m.failure(); err != nil {
		rw.abort()
		return nil, err
	}
	return rw.finish()
}

// reduceFanIn repeatedly merges contiguous groups of runs until at most
// the attempt's fan-in remain. Grouping contiguous seq ranges and
// breaking merge ties on source order keeps the final stream identical
// to a flat merge of every original run, so multi-pass merging never
// changes job output.
func reduceFanIn(rs *runState, runs []runData) ([]runData, error) {
	fanIn := rs.fanIn
	if rs.dir == "" {
		// In-memory backend: nothing to bound — resident slices carry no
		// per-run read-ahead buffer, and there is nowhere to merge to.
		return runs, nil
	}
	for len(runs) > fanIn {
		merged := make([]runData, 0, (len(runs)+fanIn-1)/fanIn)
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := lo + fanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			if hi-lo == 1 {
				merged = append(merged, runs[lo])
				continue
			}
			rf, err := mergeToFile(rs, runs[lo:hi])
			if err != nil {
				return nil, err
			}
			merged = append(merged, runData{File: rf})
		}
		runs = merged
	}
	return runs, nil
}
