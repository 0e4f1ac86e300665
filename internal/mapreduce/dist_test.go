package mapreduce

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"knnjoin/internal/dfs"
)

// TestMain turns re-executions of this test binary into worker
// processes: a distributed cluster spawns copies of os.Executable, and
// RunWorkerIfSpawned routes them into the worker loop (and exits)
// before any test runs.
func TestMain(m *testing.M) {
	RunWorkerIfSpawned()
	os.Exit(m.Run())
}

// testJobSpec parameterizes the toy jobs the distributed tests run.
// One kind with a Mode switch keeps the registry surface small while
// covering composite-key secondary sort, grouping prefixes and map-only
// output contracts.
type testJobSpec struct {
	In, Out     string
	NumReducers int
	Mode        string // "wordcount" | "grouped" | "maponly" | "countfail" | "remaining"
	MaxAttempts int
}

var testKind = DefineKind("mr-test-job", buildTestJob)

var errBoom = errors.New("boom")

// onBothTransports runs fn twice: with the workers as goroutines of this
// process, and — unless -short — as cfg.Workers worker processes.
func onBothTransports(t *testing.T, cfg Config, fn func(t *testing.T, cfg Config)) {
	t.Run("goroutines", func(t *testing.T) {
		local := cfg
		local.Workers = 0
		fn(t, local)
	})
	t.Run("processes", func(t *testing.T) {
		if testing.Short() {
			t.Skip("spawns worker processes; skipped with -short")
		}
		fn(t, cfg)
	})
}

func buildTestJob(s testJobSpec) *Job {
	job := &Job{
		Name:        "t-" + s.Mode,
		Input:       []string{s.In},
		Output:      s.Out,
		NumReducers: s.NumReducers,
		MaxAttempts: s.MaxAttempts,
	}
	count := func(n int64) []byte {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(n))
		return b[:]
	}
	switch s.Mode {
	case "wordcount":
		job.Map = func(ctx *TaskContext, rec dfs.Record, emit Emit) error {
			for _, w := range strings.Fields(string(rec)) {
				emit([]byte(w), count(1))
				ctx.Counter("words", 1)
			}
			return nil
		}
		job.Reduce = func(ctx *TaskContext, key []byte, values *Values, emit Emit) error {
			var n int64
			for {
				v, ok := values.Next()
				if !ok {
					break
				}
				n += int64(binary.BigEndian.Uint64(v))
			}
			ctx.AddWork(n)
			emit(nil, []byte(fmt.Sprintf("%s=%d", key, n)))
			return nil
		}
	case "grouped":
		// Composite keys [group byte | payload], grouped on the first
		// byte with values secondary-sorted by the key's payload suffix —
		// the shape of the join drivers' pivot-distance ordering.
		job.GroupKeyPrefix = 1
		job.Map = func(ctx *TaskContext, rec dfs.Record, emit Emit) error {
			if len(rec) < 2 {
				return fmt.Errorf("short record %q", rec)
			}
			emit([]byte(rec), []byte(rec[1:]))
			return nil
		}
		job.Reduce = func(ctx *TaskContext, key []byte, values *Values, emit Emit) error {
			var parts []string
			for {
				v, ok := values.Next()
				if !ok {
					break
				}
				parts = append(parts, string(v))
			}
			emit(nil, []byte(fmt.Sprintf("%c:%s", key[0], strings.Join(parts, ","))))
			return nil
		}
	case "maponly":
		job.Map = func(ctx *TaskContext, rec dfs.Record, emit Emit) error {
			emit(rec, []byte(strings.ToUpper(string(rec))))
			return nil
		}
	case "remaining":
		// One group per reduce task, the join drivers' shape: a 4-byte
		// big-endian group id routed by Uint32Partition over NumReducers
		// reducers, the record as the key's suffix. The reducer reports
		// what Values.Remaining said at group start against what it then
		// read, and whether the count fell by one per Next.
		job.Partition = Uint32Partition
		job.GroupKeyPrefix = 4
		job.Map = func(ctx *TaskContext, rec dfs.Record, emit Emit) error {
			g := uint32(rec[0]-'a') % uint32(s.NumReducers)
			emit(append(binary.BigEndian.AppendUint32(nil, g), rec...), rec)
			return nil
		}
		job.Reduce = func(ctx *TaskContext, key []byte, values *Values, emit Emit) error {
			records, payload := values.Remaining()
			var read, readBytes int64
			stepped := true
			for k := values.Key(); k != nil; k = values.Key() {
				v, _ := values.Next()
				read++
				readBytes += int64(len(k) + len(v))
				if left, _ := values.Remaining(); left != records-read {
					stepped = false
				}
			}
			emit(nil, fmt.Appendf(nil, "group %d: remaining %d records %d bytes, read %d records %d bytes, stepped %v",
				binary.BigEndian.Uint32(key), records, payload, read, readBytes, stepped))
			return nil
		}
	case "countfail":
		// Counts every record it sees, and fails the third call this
		// process makes — mid-attempt, after the attempt has counted.
		var calls atomic.Int64
		job.Map = func(ctx *TaskContext, rec dfs.Record, emit Emit) error {
			ctx.Counter("records", 1)
			if calls.Add(1) == 3 {
				return errBoom
			}
			emit(rec, rec)
			return nil
		}
	default:
		panic("unknown test job mode " + s.Mode)
	}
	return job
}

// wordRecords writes n deterministic pseudo-random word records.
func wordRecords(name string, n int) func(dfs.Store) {
	return func(fs dfs.Store) {
		rnd := rand.New(rand.NewSource(7))
		recs := make([]dfs.Record, n)
		for i := range recs {
			recs[i] = dfs.Record(fmt.Sprintf("w%02d w%02d w%02d",
				rnd.Intn(20), rnd.Intn(20), rnd.Intn(20)))
		}
		fs.Write(name, recs)
	}
}

// groupRecords writes records of the form <group char><payload>.
func groupRecords(name string, n int) func(dfs.Store) {
	return func(fs dfs.Store) {
		rnd := rand.New(rand.NewSource(11))
		recs := make([]dfs.Record, n)
		for i := range recs {
			recs[i] = dfs.Record(fmt.Sprintf("%c%03d", 'a'+rnd.Intn(5), rnd.Intn(1000)))
		}
		fs.Write(name, recs)
	}
}

// diskStore returns a dfs.Disk of chunk-record splits in a test
// directory: the store worker processes read their input splits from.
func diskStore(t *testing.T, chunk int) *dfs.Disk {
	t.Helper()
	d, err := dfs.NewDisk(t.TempDir(), chunk)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runInProcess executes the spec's job on the in-process engine.
func runInProcess(t *testing.T, spec testJobSpec, input func(dfs.Store)) ([]dfs.Record, *JobStats) {
	t.Helper()
	fs := dfs.New(8)
	input(fs)
	js, err := inProcess(fs, 4).Run(testKind.New(spec))
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	out, err := fs.Read(spec.Out)
	if err != nil {
		t.Fatalf("in-process output: %v", err)
	}
	return out, js
}

// runDist executes the spec's job on a fresh cluster of cfg's shape.
func runDist(t *testing.T, spec testJobSpec, input func(dfs.Store), cfg Config) ([]dfs.Record, *JobStats, error) {
	t.Helper()
	fs := diskStore(t, 8)
	input(fs)
	c, err := NewCluster(fs, 4, cfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	js, err := c.Run(testKind.New(spec))
	if err != nil {
		return nil, nil, err
	}
	out, err := fs.Read(spec.Out)
	if err != nil {
		t.Fatalf("distributed output: %v", err)
	}
	return out, js, nil
}

// assertIdentical compares a run on cfg's cluster against the fault-free
// in-process reference: byte-identical output and matching deterministic
// stats, every task committed by worker processes iff there are any.
func assertIdentical(t *testing.T, spec testJobSpec, input func(dfs.Store), cfg Config) (*JobStats, *JobStats) {
	t.Helper()
	want, wantJS := runInProcess(t, spec, input)
	got, gotJS, err := runDist(t, spec, input, cfg)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distributed output differs from in-process:\n got %d records\nwant %d records\nfirst got %q",
			len(got), len(want), firstDiff(got, want))
	}
	if gotJS.OutputRecords != wantJS.OutputRecords {
		t.Fatalf("OutputRecords = %d, want %d", gotJS.OutputRecords, wantJS.OutputRecords)
	}
	if gotJS.MapInputRecords != wantJS.MapInputRecords {
		t.Fatalf("MapInputRecords = %d, want %d", gotJS.MapInputRecords, wantJS.MapInputRecords)
	}
	wantTasks := 0
	if cfg.Workers > 0 {
		wantTasks = gotJS.MapTasks + gotJS.ReduceTasks
	}
	if gotJS.WorkerTasks != wantTasks {
		t.Fatalf("WorkerTasks = %d, want %d with %d worker processes",
			gotJS.WorkerTasks, wantTasks, cfg.Workers)
	}
	return gotJS, wantJS
}

func firstDiff(got, want []dfs.Record) string {
	for i := range got {
		if i >= len(want) {
			return fmt.Sprintf("extra record %d: %q", i, got[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Sprintf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
	return "distributed output is a prefix of in-process output"
}

func TestDistWordCountMatchesInProcess(t *testing.T) {
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 4, Mode: "wordcount"}
	gotJS, wantJS := assertIdentical(t, spec, wordRecords("in", 200), Config{Workers: 3})
	// Shuffle volume is deterministic, so it must agree across engines
	// too.
	if gotJS.ShuffleRecords != wantJS.ShuffleRecords || gotJS.ShuffleBytes != wantJS.ShuffleBytes {
		t.Fatalf("shuffle = %d recs/%d bytes, want %d/%d",
			gotJS.ShuffleRecords, gotJS.ShuffleBytes, wantJS.ShuffleRecords, wantJS.ShuffleBytes)
	}
	if gotJS.ReduceGroups != wantJS.ReduceGroups {
		t.Fatalf("ReduceGroups = %d, want %d", gotJS.ReduceGroups, wantJS.ReduceGroups)
	}
	if !reflect.DeepEqual(gotJS.Counters, wantJS.Counters) {
		t.Fatalf("Counters = %v, want %v", gotJS.Counters, wantJS.Counters)
	}
	if !reflect.DeepEqual(gotJS.ReduceInputRecords, wantJS.ReduceInputRecords) {
		t.Fatalf("ReduceInputRecords = %v, want %v", gotJS.ReduceInputRecords, wantJS.ReduceInputRecords)
	}
	if gotJS.ReexecutedAttempts != 0 || gotJS.SpeculativeAttempts != 0 {
		t.Fatalf("fault-free run reports %d re-executed, %d speculative attempts",
			gotJS.ReexecutedAttempts, gotJS.SpeculativeAttempts)
	}
}

func TestDistGroupedSecondarySortMatchesInProcess(t *testing.T) {
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 3, Mode: "grouped"}
	assertIdentical(t, spec, groupRecords("in", 150), Config{Workers: 3})
}

func TestDistMapOnlyMatchesInProcess(t *testing.T) {
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "maponly"}
	assertIdentical(t, spec, wordRecords("in", 90), Config{Workers: 3})
}

func TestDistEmptyInput(t *testing.T) {
	empty := func(fs dfs.Store) { fs.Write("in", nil) }
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "wordcount"}
	got, _, err := runDist(t, spec, empty, Config{Workers: 2})
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty input produced %d records", len(got))
	}
}

// A worker reads its map task's split from the input file itself, so a
// file torn after the store cut its splits must fail the job with an
// error naming the file and the split — no panic, no hang, no output.
func TestDistTornInputFailsJob(t *testing.T) {
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "wordcount"}
	onBothTransports(t, Config{Workers: 2}, func(t *testing.T, cfg Config) {
		var store dfs.Store
		var torn dfs.Split
		tear := func(fs dfs.Store) {
			store = fs
			wordRecords(spec.In, 60)(fs) // 8 splits of 8 records
			splits, err := fs.Splits(spec.In)
			if err != nil {
				t.Fatal(err)
			}
			torn = splits[len(splits)-1]
			if err := os.Truncate(torn.Path, torn.Offset+3); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err := runDist(t, spec, tear, cfg)
		want := fmt.Sprintf("split %d of %q", torn.Index, spec.In)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("job over a torn input: error %v, want one naming %s", err, want)
		}
		if slices.Contains(store.List(), spec.Out) {
			t.Fatalf("failed job wrote %d output records", store.Size(spec.Out))
		}
	})
}

// A job without a kind cannot be rebuilt in another process: on a
// distributed cluster it runs on goroutine workers of the same scheduler.
func TestDistKindlessJobFallsBackInProcess(t *testing.T) {
	fs := diskStore(t, 8)
	wordRecords("in", 40)(fs)
	c, err := NewCluster(fs, 4, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job := buildTestJob(testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "wordcount"})
	if job.Kind != "" {
		t.Fatal("test premise broken: job has a kind")
	}
	js, err := c.Run(job)
	if err != nil {
		t.Fatalf("kindless run: %v", err)
	}
	if js.WorkerTasks != 0 {
		t.Fatalf("kindless job reports %d worker tasks", js.WorkerTasks)
	}
	want, _ := runInProcess(t, testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "wordcount"}, wordRecords("in", 40))
	got, _ := fs.Read("out")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback output differs: %s", firstDiff(got, want))
	}
}

func TestDistTaskErrorRetriesThenSucceeds(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		{Worker: -1, Task: "t-wordcount/map/0", Attempt: 1, Point: AtMidTask, Action: ActError},
		{Worker: -1, Task: "t-wordcount/map/0", Attempt: 2, Point: AtPreCommit, Action: ActError},
	}}
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "wordcount", MaxAttempts: 3}
	onBothTransports(t, Config{Workers: 3, Faults: plan}, func(t *testing.T, cfg Config) {
		assertIdentical(t, spec, wordRecords("in", 60), cfg)
	})
}

func TestDistTaskErrorExhaustsAttempts(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		{Worker: -1, Task: "t-wordcount/reduce/1", Attempt: 1, Point: AtTaskStart, Action: ActError},
		{Worker: -1, Task: "t-wordcount/reduce/1", Attempt: 2, Point: AtTaskStart, Action: ActError},
	}}
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "wordcount", MaxAttempts: 2}
	onBothTransports(t, Config{Workers: 2, Faults: plan}, func(t *testing.T, cfg Config) {
		_, _, err := runDist(t, spec, wordRecords("in", 60), cfg)
		if err == nil {
			t.Fatal("job with an always-failing task succeeded")
		}
		if !strings.Contains(err.Error(), "failed after 2 attempts") {
			t.Fatalf("unexpected error: %v", err)
		}
	})
}

// A failed attempt's counters must not leak into the job's: the map
// function counts each record, then fails its third call, so the first
// attempt dies having counted three. Only the retry commits. One worker
// process, so the retry meets the same call count a goroutine retry does.
func TestDistFailedAttemptCountersDiscarded(t *testing.T) {
	four := func(fs dfs.Store) { fs.Write("in", []dfs.Record{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}) }
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "countfail", MaxAttempts: 2}
	onBothTransports(t, Config{Workers: 1}, func(t *testing.T, cfg Config) {
		_, js, err := runDist(t, spec, four, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if js.MapInputRecords != 4 || js.Counters["records"] != js.MapInputRecords {
			t.Fatalf("Counters[records] = %d with %d map input records — a failed attempt's count leaked",
				js.Counters["records"], js.MapInputRecords)
		}
	})
}

// Task errors keep their identity on goroutine workers: no wire in
// between turns them into strings.
func TestTaskErrorUnwraps(t *testing.T) {
	fs := dfs.New(8)
	fs.Write("in", []dfs.Record{[]byte("a"), []byte("b"), []byte("c")})
	job := buildTestJob(testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "countfail"})
	if _, err := inProcess(fs, 2).Run(job); !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want one that unwraps to errBoom", err)
	}
}

// The process transport merges under the engine's budget like goroutine
// workers do: the multi-pass input of TestSpillFanInMultiPassMerge over
// worker processes spills intermediate merges beyond the map tasks' own
// runs and stays byte-identical.
func TestDistFanInMultiPassMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes; skipped with -short")
	}
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 4, Mode: "wordcount"}
	run := func(cfg Config) ([]dfs.Record, *JobStats) {
		fs := diskStore(t, 4) // 60 map tasks
		writeLines(fs, "in", randomLines(240)...)
		c, err := NewCluster(fs, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		js, err := c.Run(testKind.New(spec))
		if err != nil {
			t.Fatal(err)
		}
		out, err := fs.Read("out")
		if err != nil {
			t.Fatal(err)
		}
		return out, js
	}
	want, _ := run(Config{})
	got, js := run(Config{Workers: 2, Engine: Engine{SpillDir: t.TempDir(), MemLimit: 256 << 10}})
	if js.WorkerTasks != js.MapTasks+js.ReduceTasks {
		t.Fatalf("WorkerTasks = %d, want %d", js.WorkerTasks, js.MapTasks+js.ReduceTasks)
	}
	// At most one run file per map task and reducer; the rest are merges.
	if js.SpilledRuns <= int64(js.MapTasks*js.ReduceTasks) {
		t.Fatalf("fan-in 3 over %d map tasks produced no intermediate merges (%d spilled runs)",
			js.MapTasks, js.SpilledRuns)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("output differs under multi-pass merge: %s", firstDiff(got, want))
	}
}

func TestDistSequentialJobsOneCluster(t *testing.T) {
	fs := diskStore(t, 8)
	wordRecords("in", 80)(fs)
	c, err := NewCluster(fs, 4, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		out := fmt.Sprintf("out-%d", i)
		js, err := c.Run(testKind.New(testJobSpec{In: "in", Out: out, NumReducers: 3, Mode: "wordcount"}))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if js.WorkerTasks == 0 {
			t.Fatalf("job %d ran in-process", i)
		}
	}
	first, _ := fs.Read("out-0")
	for i := 1; i < 3; i++ {
		got, _ := fs.Read(fmt.Sprintf("out-%d", i))
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("job %d output differs from job 0", i)
		}
	}
}

func TestDistClusterCloseIsIdempotent(t *testing.T) {
	c, err := NewCluster(diskStore(t, 8), 2, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Distributed() {
		t.Fatal("Distributed() = false on a distributed cluster")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if inProcess(dfs.New(8), 2).Distributed() {
		t.Fatal("Distributed() = true on an in-process cluster")
	}
}

func TestFaultEventMatching(t *testing.T) {
	ev := FaultEvent{Worker: -1, Task: "j/map/*", Attempt: 1, Point: AtMidTask}
	if !ev.matches(2, "j/map/7", 1, AtMidTask) {
		t.Fatal("wildcard worker + prefix task should match")
	}
	if ev.matches(2, "j/reduce/0", 1, AtMidTask) {
		t.Fatal("prefix mismatch should not match")
	}
	if ev.matches(2, "j/map/7", 2, AtMidTask) {
		t.Fatal("attempt mismatch should not match")
	}
	if ev.matches(2, "j/map/7", 1, AtPreCommit) {
		t.Fatal("point mismatch should not match")
	}
	pinned := FaultEvent{Worker: 1, Point: AtTaskStart}
	if pinned.matches(0, "x", 5, AtTaskStart) {
		t.Fatal("worker mismatch should not match")
	}
	if !pinned.matches(1, "x", 5, AtTaskStart) {
		t.Fatal("pinned worker should match any task/attempt")
	}
}

// FuzzCoordinatorDone: whatever JSON body reaches a coordinator's /done,
// with a job in flight, the handler answers it and never panics, and
// the scheduler commits no attempt of a task the job does not have, nor
// a successful map attempt whose run list does not hold one run per
// reducer.
func FuzzCoordinatorDone(f *testing.F) {
	const nReduce = 3
	runs := func(n int) []runData {
		out := make([]runData, n)
		for i := range out {
			out[i] = runData{File: &runFile{Path: fmt.Sprintf("run-%d", i), Records: 1, Bytes: 2}}
		}
		return out
	}
	for _, comp := range []completion{
		{JobID: 1, Phase: "map", Index: 0, Attempt: 1, Runs: runs(nReduce), Records: 2},
		{JobID: 1, Phase: "map", Index: 1, Attempt: 1, Runs: runs(nReduce - 1)},
		{JobID: 1, Phase: "reduce", Index: -1, Attempt: 1},
		{JobID: 1, Phase: "reduce", Index: 0, Attempt: 1, Err: "boom", BadRuns: []string{"run-0"}},
	} {
		body, err := json.Marshal(comp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fs := dfs.New(2)
		writeLines(fs, "in", "a b", "c d", "e f", "g h")
		splits, err := fs.Splits("in")
		if err != nil {
			t.Fatal(err)
		}
		c := inProcess(fs, 2)
		j := c.newCoordJob(testKind.New(testJobSpec{In: "in", Out: "out", NumReducers: nReduce, Mode: "wordcount"}), splits)
		j.id = 1
		c.cur = j

		rec := httptest.NewRecorder()
		jsonHandler(c.done)(rec, httptest.NewRequest(http.MethodPost, "/done", bytes.NewReader(body)))
		if rec.Body.Len() == 0 {
			t.Fatalf("no response body (status %d)", rec.Code)
		}
		var comp completion
		if json.Unmarshal(body, &comp) != nil || rec.Code != http.StatusOK {
			return
		}
		var resp completionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("unparsable response %q: %v", rec.Body.Bytes(), err)
		}
		if !resp.Accepted {
			return
		}
		if j.task(comp.Phase, comp.Index) == nil {
			t.Fatalf("committed an attempt of task %s/%d the job does not have", comp.Phase, comp.Index)
		}
		if comp.Phase == "map" && len(comp.Runs) != nReduce {
			t.Fatalf("committed a map attempt with %d runs for %d reducers", len(comp.Runs), nReduce)
		}
	})
}
