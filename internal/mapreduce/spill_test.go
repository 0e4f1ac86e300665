package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"knnjoin/internal/dfs"
)

// spillCluster builds a cluster whose shuffle spills to a temp dir.
func spillCluster(t *testing.T, nodes, chunk int, eng Engine) *Cluster {
	t.Helper()
	if eng.SpillDir == "" {
		eng.SpillDir = t.TempDir()
	}
	c, err := NewCluster(dfs.New(chunk), nodes, Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomLines builds a deterministic duplicate-heavy workload large
// enough to exercise many runs and groups.
func randomLines(n int) []string {
	rng := rand.New(rand.NewSource(42))
	words := []string{"ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"}
	lines := make([]string, n)
	for i := range lines {
		var sb strings.Builder
		for w := 0; w < 6; w++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		lines[i] = sb.String()
	}
	return lines
}

// The spill backend must produce byte-identical output to the in-memory
// backend, record for record — the property that lets every join driver
// run out-of-core unchanged.
func TestSpillBackendOutputIdenticalToInMemory(t *testing.T) {
	lines := randomLines(200)
	mem := newTestCluster(4, 16)
	writeLines(mem.FS(), "in", lines...)
	memStats, err := mem.Run(wordCountJob("in", "out"))
	if err != nil {
		t.Fatal(err)
	}

	sp := spillCluster(t, 4, 16, Engine{})
	writeLines(sp.FS(), "in", lines...)
	spStats, err := sp.Run(wordCountJob("in", "out"))
	if err != nil {
		t.Fatal(err)
	}

	memOut, _ := mem.FS().Read("out")
	spOut, _ := sp.FS().Read("out")
	if len(memOut) != len(spOut) {
		t.Fatalf("output sizes differ: mem %d spill %d", len(memOut), len(spOut))
	}
	for i := range memOut {
		if !bytes.Equal(memOut[i], spOut[i]) {
			t.Fatalf("output record %d differs: %q vs %q", i, memOut[i], spOut[i])
		}
	}
	if spStats.SpilledRuns == 0 || spStats.SpilledBytes == 0 {
		t.Fatalf("spill engine spilled nothing: %+v", spStats)
	}
	if memStats.SpilledRuns != 0 {
		t.Fatalf("in-memory engine spilled %d runs", memStats.SpilledRuns)
	}
	if spStats.ShuffleBytes != memStats.ShuffleBytes || spStats.ShuffleRecords != memStats.ShuffleRecords {
		t.Fatalf("shuffle accounting diverged: mem %d/%d spill %d/%d",
			memStats.ShuffleRecords, memStats.ShuffleBytes, spStats.ShuffleRecords, spStats.ShuffleBytes)
	}
}

// With a MemLimit below the shuffle size, residency must stay under the
// limit while the job still completes; with a generous limit nothing
// spills and the shuffle stays resident.
func TestSpillMemLimitBoundsResidency(t *testing.T) {
	lines := randomLines(300)

	tight := spillCluster(t, 4, 8, Engine{MemLimit: 4 << 10})
	writeLines(tight.FS(), "in", lines...)
	st, err := tight.Run(wordCountJob("in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	if st.ShuffleBytes <= 4<<10 {
		t.Fatalf("workload too small to exceed the limit: shuffle=%d", st.ShuffleBytes)
	}
	if st.SpilledRuns == 0 {
		t.Fatal("over-limit workload did not spill")
	}
	if st.PeakResidentBytes > 4<<10 {
		t.Fatalf("peak resident %d exceeds the 4KiB MemLimit", st.PeakResidentBytes)
	}

	roomy := spillCluster(t, 4, 8, Engine{MemLimit: 64 << 20})
	writeLines(roomy.FS(), "in", lines...)
	st, err = roomy.Run(wordCountJob("in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	if st.SpilledRuns != 0 {
		t.Fatalf("under-limit workload spilled %d runs", st.SpilledRuns)
	}
	if st.PeakResidentBytes != st.ShuffleBytes {
		t.Fatalf("retained peak %d != shuffle bytes %d", st.PeakResidentBytes, st.ShuffleBytes)
	}
}

// A MemLimit of 256 KiB on 4 nodes leaves each task a 32 KiB buffer
// share, a fan-in of 3 at the 8 KiB minimum buffer: a reducer of 60 map
// tasks merges in passes, writing intermediate run files — the map runs
// themselves stay resident — and the output is still byte-identical.
func TestSpillFanInMultiPassMerge(t *testing.T) {
	lines := randomLines(240)

	mem := newTestCluster(4, 4) // 60 map tasks
	writeLines(mem.FS(), "in", lines...)
	if _, err := mem.Run(wordCountJob("in", "out")); err != nil {
		t.Fatal(err)
	}

	eng := Engine{MemLimit: 256 << 10}
	if fanIn, _ := eng.mergeBudget(4); fanIn != 3 {
		t.Fatalf("256 KiB on 4 nodes gives fan-in %d, want 3", fanIn)
	}
	sp := spillCluster(t, 4, 4, eng)
	writeLines(sp.FS(), "in", lines...)
	st, err := sp.Run(wordCountJob("in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	if st.SpilledRuns == 0 {
		t.Fatalf("fan-in 3 over %d map tasks produced no intermediate merges", st.MapTasks)
	}
	memOut, _ := mem.FS().Read("out")
	spOut, _ := sp.FS().Read("out")
	if len(memOut) != len(spOut) {
		t.Fatalf("output sizes differ: mem %d spill %d", len(memOut), len(spOut))
	}
	for i := range memOut {
		if !bytes.Equal(memOut[i], spOut[i]) {
			t.Fatalf("output record %d differs under multi-pass merge", i)
		}
	}
}

// onePassJob is a 41-split, 4-reducer job whose every map task emits
// more than 1 MiB (17 values of 64 KiB, spread over the reducers): under
// a 2 MiB MemLimit on one node no map task's runs fit the 1 MiB
// retention half, so every run spills and each reducer receives 41 run
// files. Each reducer reports its group's value count and digest.
func onePassJob() *Job {
	base := make([]byte, 128<<10)
	for i := range base {
		base[i] = byte(i * 31 / 7)
	}
	return &Job{
		Name: "one-pass", Input: []string{"in"}, Output: "out",
		NumReducers: 4, Partition: Uint32Partition, GroupKeyPrefix: 4,
		Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
			task := binary.BigEndian.Uint32(rec)
			for j := uint32(0); j < 17; j++ {
				key := binary.BigEndian.AppendUint32(nil, j%4)
				key = binary.BigEndian.AppendUint32(key, task)
				key = binary.BigEndian.AppendUint32(key, j)
				off := (task*17 + j) % (64 << 10)
				emit(key, base[off:off+64<<10])
			}
			return nil
		},
		Reduce: func(_ *TaskContext, key []byte, values *Values, emit Emit) error {
			h := fnv.New64a()
			n := 0
			for v, ok := values.Next(); ok; v, ok = values.Next() {
				h.Write(v)
				n++
			}
			emit(nil, fmt.Appendf(nil, "group %x: %d values, digest %016x", key[:4], n, h.Sum64()))
			return nil
		},
	}
}

// A MemLimit whose 32 KiB buffers would cap the fan-in at 32 still
// merges a reducer's 41 spilled runs in one pass: the fan-in comes from
// the 8 KiB minimum buffer, and each merge splits its share over the
// files it opens. No intermediate run is written — the spilled bytes
// are exactly the map side's — residency stays under the limit, and the
// output is the in-memory run's, byte for byte.
func TestSpillMergesFortyOneRunsInOnePass(t *testing.T) {
	const maps = 41
	splits := make([]string, maps)
	for i := range splits {
		splits[i] = string(binary.BigEndian.AppendUint32(nil, uint32(i)))
	}
	eng := Engine{MemLimit: 2 << 20}
	if old := eng.MemLimit / 2 / spillBufSize; old != 32 {
		t.Fatalf("budget gives %d 32 KiB buffers, want the 32 of the old fan-in rule", old)
	}

	mem := newTestCluster(1, 1)
	writeLines(mem.FS(), "in", splits...)
	if _, err := mem.Run(onePassJob()); err != nil {
		t.Fatal(err)
	}
	sp := spillCluster(t, 1, 1, eng)
	writeLines(sp.FS(), "in", splits...)
	st, err := sp.Run(onePassJob())
	if err != nil {
		t.Fatal(err)
	}
	if st.MapTasks != maps || st.ReduceTasks != 4 {
		t.Fatalf("%d map and %d reduce tasks, want %d and 4", st.MapTasks, st.ReduceTasks, maps)
	}
	if st.SpilledRuns != maps*4 || st.SpilledBytes != st.ShuffleBytes {
		t.Fatalf("spilled %d runs of %d bytes for a %d-byte shuffle of %d map runs: a merge pass rewrote runs",
			st.SpilledRuns, st.SpilledBytes, st.ShuffleBytes, maps*4)
	}
	if st.PeakResidentBytes > eng.MemLimit {
		t.Fatalf("peak resident %d exceeds the %d-byte MemLimit", st.PeakResidentBytes, eng.MemLimit)
	}
	memOut, _ := mem.FS().Read("out")
	spOut, _ := sp.FS().Read("out")
	if fmt.Sprintf("%q", memOut) != fmt.Sprintf("%q", spOut) {
		t.Fatalf("one-pass output differs from in-memory output:\n%q\n%q", spOut, memOut)
	}
}

// Every merge a budget admits — up to fanIn run files read and one
// written — fits its buffers in the task's share, whatever the limit or
// node count, the floor of fan-in 2 included; only a share below the
// minSpillBuf floor is clamped rather than honored.
func TestMergeBuffersFitShare(t *testing.T) {
	for _, eng := range []Engine{
		{MemLimit: 8 << 20}, {MemLimit: 2 << 20}, {MemLimit: 256 << 10}, {MemLimit: 64 << 10},
		{MemLimit: 4 << 10}, {MemLimit: 1 << 10},
	} {
		for _, nodes := range []int{1, 4} {
			fanIn, share := eng.mergeBudget(nodes)
			rs := &runState{share: share}
			for files := 0; files <= fanIn; files++ {
				buf := rs.bufSize(files)
				if buf > spillBufSize || buf > minSpillBuf && int64(files+1)*int64(buf) > share {
					t.Fatalf("%+v on %d nodes: %d files + a writer at %d bytes each overrun the %d-byte share",
						eng, nodes, files, buf, share)
				}
			}
		}
	}
}

// A partially written run file must fail the reduce attempt cleanly,
// and the retry — after the scheduler re-executes the run's producer —
// must succeed with complete output.
func TestSpillCrashMidMergeRetries(t *testing.T) {
	c, err := NewCluster(dfs.New(4), 2, Config{
		Engine: Engine{SpillDir: t.TempDir()},
		Faults: &FaultPlan{Events: []FaultEvent{{Worker: -1, Task: "wordcount/map/0", Attempt: 1,
			Point: AtPostCommit, Action: ActTruncateRun, TruncateBytes: 5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeLines(c.FS(), "in", randomLines(40)...)
	job := wordCountJob("in", "out")
	job.NumReducers = 1
	js, err := c.Run(job)
	if err != nil {
		t.Fatalf("retry after a torn run file failed: %v", err)
	}
	if js.ReexecutedAttempts < 2 {
		t.Fatalf("ReexecutedAttempts = %d, want >= 2 (map re-run + reduce retry)", js.ReexecutedAttempts)
	}

	// The recovered output must be complete and correct.
	mem := newTestCluster(2, 4)
	writeLines(mem.FS(), "in", randomLines(40)...)
	ref := wordCountJob("in", "out")
	ref.NumReducers = 1
	if _, err := mem.Run(ref); err != nil {
		t.Fatal(err)
	}
	want := readCounts(t, mem.FS(), "out")
	got := readCounts(t, c.FS(), "out")
	if len(got) != len(want) {
		t.Fatalf("recovered output has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("recovered count %q = %d, want %d", k, got[k], v)
		}
	}
}

// A run file that stays truncated must abort the job with a truncation
// error after retries — never silently merge the readable prefix. The
// scheduler answers a damaged run by re-executing its producer, so
// "stays truncated" means every map attempt tears its run anew: a plan
// with more truncations than the job's re-dispatch budget.
func TestSpillTruncatedRunFileAbortsJob(t *testing.T) {
	events := make([]FaultEvent, 128)
	for i := range events {
		events[i] = FaultEvent{Worker: -1, Task: "wordcount/map/*", Point: AtPostCommit,
			Action: ActTruncateRun, TruncateBytes: 1}
	}
	c, err := NewCluster(dfs.New(4), 2, Config{Engine: Engine{SpillDir: t.TempDir()}, Faults: &FaultPlan{Events: events}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	writeLines(c.FS(), "in", randomLines(40)...)
	job := wordCountJob("in", "out")
	job.NumReducers = 1
	_, err = c.Run(job)
	if err == nil {
		t.Fatal("job with a truncated run file succeeded")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error does not name the truncation: %v", err)
	}
}

// The engine must reject configurations that cannot spill, or whose
// worker processes could not read their input splits, and clean its
// per-job directories up after a successful run.
func TestSpillEngineValidationAndCleanup(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"MemLimit without SpillDir", Config{Engine: Engine{MemLimit: 1 << 20}}},
		{"worker processes over dfs.New", Config{Workers: 1}},
	} {
		if _, err := NewCluster(dfs.New(8), 2, tc.cfg); err == nil {
			t.Errorf("%s was accepted", tc.name)
		}
	}

	spillRoot := t.TempDir()
	c := spillCluster(t, 2, 8, Engine{SpillDir: spillRoot})
	writeLines(c.FS(), "in", randomLines(30)...)
	if _, err := c.Run(wordCountJob("in", "out")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(spillRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("job left spill debris behind: %v", names)
	}
}

// Lazy DFS splits and the spill engine together: a job whose input and
// shuffle both live on disk still produces in-memory-identical output.
func TestSpillWithDiskDFS(t *testing.T) {
	lines := randomLines(120)
	recs := make([]dfs.Record, len(lines))
	for i, l := range lines {
		recs[i] = dfs.Record(l)
	}

	mem := newTestCluster(3, 8)
	mem.FS().Write("in", recs)
	if _, err := mem.Run(wordCountJob("in", "out")); err != nil {
		t.Fatal(err)
	}

	disk, err := dfs.NewDisk(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(disk, 3, Config{Engine: Engine{SpillDir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := disk.Write("in", recs); err != nil {
		t.Fatal(err)
	}
	st, err := c.Run(wordCountJob("in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	if st.MapInputRecords != int64(len(lines)) {
		t.Fatalf("map input records = %d, want %d", st.MapInputRecords, len(lines))
	}
	memOut, _ := mem.FS().Read("out")
	diskOut, err := disk.Read("out")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(memOut) != fmt.Sprint(diskOut) {
		t.Fatal("disk-DFS + spill output differs from in-memory output")
	}
}

// When a reduce task holds one group, Values.Remaining at the group's
// start is exactly the number of values the reduce function then reads,
// and exactly their key+value bytes, and the count falls by one per
// Next — for resident runs, for spilled runs merged through fan-in
// passes, and on both transports.
func TestValuesRemainingExactForOneGroupTasks(t *testing.T) {
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 5, Mode: "remaining"}
	for _, tc := range []struct {
		name  string
		eng   Engine
		fanIn bool
	}{
		{"memory runs", Engine{}, false},
		{"spilled runs, fan-in 2", Engine{MemLimit: 1 << 10}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onBothTransports(t, Config{Workers: 2, Engine: tc.eng}, func(t *testing.T, cfg Config) {
				if cfg.Engine.MemLimit > 0 {
					cfg.Engine.SpillDir = t.TempDir()
				}
				out, js, err := runDist(t, spec, groupRecords("in", 200), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tc.fanIn && js.SpilledRuns <= int64(js.MapTasks*js.ReduceTasks) {
					t.Fatalf("no fan-in merge pass ran: %d spilled runs for %d map tasks",
						js.SpilledRuns, js.MapTasks)
				}
				if len(out) != spec.NumReducers {
					t.Fatalf("%d groups reported, want %d", len(out), spec.NumReducers)
				}
				var total int64
				for _, rec := range out {
					var g, records, payload, read, readBytes int64
					var stepped bool
					if _, err := fmt.Sscanf(string(rec), "group %d: remaining %d records %d bytes, read %d records %d bytes, stepped %t",
						&g, &records, &payload, &read, &readBytes, &stepped); err != nil {
						t.Fatalf("unparsable reducer report %q: %v", rec, err)
					}
					if read == 0 || records != read || payload != readBytes || !stepped {
						t.Errorf("%s", rec)
					}
					total += read
				}
				if total != js.ShuffleRecords {
					t.Fatalf("reducers read %d records, the shuffle carried %d", total, js.ShuffleRecords)
				}
			})
		})
	}
}

// A spilled run's declared Records and Bytes travel in the producing
// attempt's completion. When they claim more than the file holds,
// Remaining still reports no more than the file can carry, so a
// reducer that sizes its storage from it (as pgbj.CollectGroupBlock
// does: the remaining records, capped by the remaining bytes over one
// value's size) never allocates past the bytes on disk — and a run that
// claims more records than it holds still fails the attempt as a bad
// run, naming the file.
func TestRemainingBoundedByRunFile(t *testing.T) {
	rs := &runState{dir: t.TempDir(), fanIn: 8, share: 4 << 10, mem: &memAccount{}}
	kvs := make([]KV, 50)
	for i := range kvs {
		kvs[i] = KV{Key: fmt.Appendf(nil, "g%03d", i), Value: bytes.Repeat([]byte{byte(i)}, 24)}
	}
	rf, err := writeRunFile(rs, kvs)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(rf.Path)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()
	for _, tc := range []struct {
		name           string
		records, bytes int64
		bad            bool
	}{
		{"honest", rf.Records, rf.Bytes, false},
		{"records inflated", 1 << 40, rf.Bytes, true},
		{"bytes inflated", rf.Records, 1 << 40, false},
		{"both inflated", 1 << 40, 1 << 40, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sized, read int64
			job := &Job{GroupKeyPrefix: 1, Reduce: func(_ *TaskContext, _ []byte, values *Values, _ Emit) error {
				first, ok := values.Next()
				if !ok {
					return fmt.Errorf("empty group")
				}
				records, payload := values.Remaining()
				sized = (1 + min(records, payload/int64(len(first)))) * int64(len(first))
				for read = 1; ; read++ {
					if _, ok := values.Next(); !ok {
						break
					}
				}
				return nil
			}}
			a := &assignment{JobName: "t", Phase: "reduce", job: job,
				Runs: []runData{{File: &runFile{Path: rf.Path, Records: tc.records, Bytes: tc.bytes}}}}
			ctx := &TaskContext{counters: NewCounterSet()}
			comp := &completion{}
			_, err := (&worker{}).reduceTask(a, ctx, rs, comp)
			if sized > size {
				t.Errorf("sized storage for %d value bytes from a %d-byte run file", sized, size)
			}
			if read != int64(len(kvs)) {
				t.Errorf("read %d values, the file holds %d", read, len(kvs))
			}
			var bad *runBadError
			switch {
			case tc.bad && (!errors.As(err, &bad) || len(comp.BadRuns) != 1 || comp.BadRuns[0] != rf.Path):
				t.Fatalf("attempt error %v, bad runs %v: want a bad run naming %s", err, comp.BadRuns, rf.Path)
			case !tc.bad && err != nil:
				t.Fatalf("attempt failed: %v", err)
			}
		})
	}
}
