package knnjoin

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"knnjoin/internal/dataset"
	"knnjoin/internal/obs"
)

// TestMain lets re-executions of this test binary serve as MapReduce
// worker processes for the Workers > 0 tests below.
func TestMain(m *testing.M) {
	RunWorkerIfSpawned()
	os.Exit(m.Run())
}

func skipClusterShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("cluster mode spawns worker processes; skipped with -short")
	}
}

// assertRanOnWorkers fails unless every MapReduce job of the run
// committed all its tasks on worker processes — the proof the run did
// not silently fall back to the in-process engine.
func assertRanOnWorkers(t *testing.T, st *Stats) {
	t.Helper()
	if len(st.Jobs) == 0 {
		t.Fatal("no per-job stats recorded")
	}
	for _, j := range st.Jobs {
		if j.WorkerTasks == 0 {
			t.Fatalf("job %q committed no tasks on worker processes", j.Name)
		}
	}
}

// TestClusterModeMatchesInProcess runs every join algorithm once on the
// in-process engine and once on three worker processes: the multi-
// process engine must return byte-identical results — same neighbor
// IDs, same distances, same order.
func TestClusterModeMatchesInProcess(t *testing.T) {
	skipClusterShort(t)
	r := dataset.Uniform(300, 4, 100, 11)
	s := dataset.Uniform(340, 4, 100, 12)
	for _, alg := range []Algorithm{PGBJ, PBJ, HBRJ, Broadcast, ZKNN, Theta, LSH} {
		t.Run(alg.String(), func(t *testing.T) {
			opts := Options{K: 3, Algorithm: alg, Nodes: 4, Seed: 5}
			want, _, err := Join(r, s, opts)
			if err != nil {
				t.Fatalf("in-process: %v", err)
			}
			opts.Workers = 3
			got, st, err := Join(r, s, opts)
			if err != nil {
				t.Fatalf("3 workers: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: cluster-mode output differs from in-process output", alg)
			}
			assertRanOnWorkers(t, st)
		})
	}
}

// TestClusterModeRangeJoin covers the range-join pipeline, whose join
// job is a distinct registered kind from the kNN jobs.
func TestClusterModeRangeJoin(t *testing.T) {
	skipClusterShort(t)
	r := dataset.Uniform(250, 3, 100, 21)
	s := dataset.Uniform(280, 3, 100, 22)
	opts := RangeOptions{Radius: 18, Nodes: 4, Seed: 3}
	want, _, err := RangeJoin(r, s, opts)
	if err != nil {
		t.Fatalf("in-process: %v", err)
	}
	opts.Workers = 3
	got, st, err := RangeJoin(r, s, opts)
	if err != nil {
		t.Fatalf("3 workers: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cluster-mode range join differs from in-process output")
	}
	assertRanOnWorkers(t, st)
}

// TestClusterModeClosestPairs covers the top-k pair pipeline.
func TestClusterModeClosestPairs(t *testing.T) {
	skipClusterShort(t)
	r := dataset.Uniform(220, 3, 100, 31)
	s := dataset.Uniform(240, 3, 100, 32)
	opts := PairOptions{K: 10, Nodes: 4, Seed: 9}
	want, _, err := ClosestPairs(r, s, opts)
	if err != nil {
		t.Fatalf("in-process: %v", err)
	}
	opts.Workers = 3
	got, st, err := ClosestPairs(r, s, opts)
	if err != nil {
		t.Fatalf("3 workers: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cluster-mode closest pairs differ from in-process output")
	}
	assertRanOnWorkers(t, st)
}

// TestClusterModeRecoversFromKilledWorker is the ISSUE's acceptance
// scenario end to end: a kNN join on three worker processes, one of
// them killed mid-job, completes via task re-execution with results
// byte-identical to the single-process engine. Attempt is pinned to 1
// so the re-dispatched attempt is not killed again.
func TestClusterModeRecoversFromKilledWorker(t *testing.T) {
	skipClusterShort(t)
	r := dataset.Uniform(300, 4, 100, 41)
	s := dataset.Uniform(340, 4, 100, 42)
	opts := Options{K: 3, Algorithm: PGBJ, Nodes: 4, Seed: 5}
	want, _, err := Join(r, s, opts)
	if err != nil {
		t.Fatalf("in-process: %v", err)
	}
	opts.Workers = 3
	opts.Faults = &FaultPlan{Events: []FaultEvent{
		{Worker: -1, Task: "pgbj-join/map/0", Attempt: 1, Point: AtMidTask, Action: ActKill},
	}}
	got, st, err := Join(r, s, opts)
	if err != nil {
		t.Fatalf("3 workers with mid-join kill: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("output differs after a worker was killed mid-join")
	}
	assertRanOnWorkers(t, st)
	var reexec int64
	for _, j := range st.Jobs {
		reexec += j.ReexecutedAttempts
	}
	if reexec < 1 {
		t.Fatalf("ReexecutedAttempts = %d, want >= 1 after the kill", reexec)
	}
}

// TestClusterModeHonorsMemLimit runs the worker processes under a
// MemLimit small enough to force multi-pass reduce-side merges: output
// stays byte-identical, and the limit shows as intermediate merge files
// spilled beyond what the same workers spill without it.
func TestClusterModeHonorsMemLimit(t *testing.T) {
	skipClusterShort(t)
	r := dataset.Uniform(300, 4, 100, 51)
	s := dataset.Uniform(340, 4, 100, 52)
	opts := Options{K: 3, Algorithm: PGBJ, Nodes: 4, Seed: 5, ChunkRecords: 40}
	want, _, err := Join(r, s, opts)
	if err != nil {
		t.Fatalf("in-process: %v", err)
	}
	spilled := func(st *Stats) (n int64) {
		for _, j := range st.Jobs {
			n += j.SpilledBytes
		}
		return n
	}
	opts.Workers = 2
	_, unlimited, err := Join(r, s, opts)
	if err != nil {
		t.Fatalf("2 workers: %v", err)
	}
	opts.MemLimit = 16 << 10
	got, limited, err := Join(r, s, opts)
	if err != nil {
		t.Fatalf("2 workers under a 16K limit: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("output differs on worker processes under a MemLimit")
	}
	assertRanOnWorkers(t, limited)
	if spilled(limited) <= spilled(unlimited) {
		t.Fatalf("spilled %d bytes under the limit, %d without: the limit was ignored",
			spilled(limited), spilled(unlimited))
	}
}

// TestTracedJoinInProcess: tracing the default engine changes no output
// byte and records the spans a traced cluster-mode run does — a job span
// per MapReduce job, a committed task span per task, filed under the
// goroutine workers' worker-N lanes.
func TestTracedJoinInProcess(t *testing.T) {
	r := dataset.Uniform(300, 4, 100, 41)
	s := dataset.Uniform(340, 4, 100, 42)
	opts := Options{K: 3, Algorithm: PGBJ, Nodes: 4, Seed: 5}
	want, wantSt, err := Join(r, s, opts)
	if err != nil {
		t.Fatalf("untraced: %v", err)
	}
	opts.TraceDir = t.TempDir()
	got, _, err := Join(r, s, opts)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("tracing perturbed the join output")
	}
	spans, err := obs.ReadDir(opts.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, committed := 0, 0
	for _, sp := range spans {
		switch {
		case strings.HasPrefix(sp.Name, "job:"):
			jobs++
			if sp.Proc != "coord" {
				t.Fatalf("job span %q recorded by %q, want coord", sp.Name, sp.Proc)
			}
		case sp.Name == "task" && sp.Attrs["outcome"] == "committed":
			committed++
			if !strings.HasPrefix(sp.Proc, "worker-") || sp.Attrs["task"] == "" || sp.Attrs["attempt"] != "1" {
				t.Fatalf("task span proc=%q attrs=%v", sp.Proc, sp.Attrs)
			}
		}
	}
	if jobs != len(wantSt.Jobs) {
		t.Fatalf("%d job spans for %d jobs", jobs, len(wantSt.Jobs))
	}
	if committed == 0 {
		t.Fatal("no committed task spans")
	}
}

// TestTracedFaultedJoinProducesMergedTrace is the observability PR's
// acceptance scenario: a FaultPlan-killed three-worker PGBJ join with
// tracing enabled must (a) stay byte-identical to the untraced
// in-process run, and (b) leave a merged trace in which the killed
// attempt, the coordinator's re-dispatch, and the winning committed
// attempt are distinct spans; the trace must render as a timeline and
// survive a Chrome trace-event export round trip.
func TestTracedFaultedJoinProducesMergedTrace(t *testing.T) {
	skipClusterShort(t)
	r := dataset.Uniform(300, 4, 100, 41)
	s := dataset.Uniform(340, 4, 100, 42)
	opts := Options{K: 3, Algorithm: PGBJ, Nodes: 4, Seed: 5}
	want, _, err := Join(r, s, opts)
	if err != nil {
		t.Fatalf("in-process: %v", err)
	}

	dir := t.TempDir()
	opts.Workers = 3
	opts.TraceDir = dir
	opts.Faults = &FaultPlan{Events: []FaultEvent{
		{Worker: -1, Task: "pgbj-join/map/0", Attempt: 1, Point: AtMidTask, Action: ActKill},
	}}
	got, _, err := Join(r, s, opts)
	if err != nil {
		t.Fatalf("3 traced workers with mid-join kill: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("tracing perturbed the join output")
	}

	spans, err := obs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}

	var killed, committed *obs.SpanRecord
	redispatched := false
	for i := range spans {
		sp := &spans[i]
		attrs := sp.Attrs
		if sp.Name == "task" && attrs["task"] == "pgbj-join/map/0" {
			switch attrs["outcome"] {
			case "killed":
				killed = sp
			case "committed":
				committed = sp
			}
		}
		for _, ev := range sp.Events {
			if ev.Name == "re-dispatch" && ev.Attrs["task"] == "pgbj-join/map/0" {
				redispatched = true
			}
		}
	}
	if killed == nil {
		t.Fatal("no task span with outcome=killed for pgbj-join/map/0")
	}
	if committed == nil {
		t.Fatal("no task span with outcome=committed for pgbj-join/map/0")
	}
	if killed.SpanID == committed.SpanID {
		t.Fatal("killed and committed attempts share a span")
	}
	if killed.TraceID != committed.TraceID {
		t.Fatalf("attempts in different traces: %s vs %s", killed.TraceID, committed.TraceID)
	}
	if !redispatched {
		t.Fatal("no re-dispatch event recorded for the killed task")
	}
	foundFault := false
	for _, ev := range killed.Events {
		if ev.Name == "fault-kill" {
			foundFault = true
		}
	}
	if !foundFault {
		t.Fatal("killed attempt's span carries no fault-kill event")
	}

	timeline := obs.Timeline(spans, 120)
	if !strings.Contains(timeline, "coord") || !strings.Contains(timeline, "task") {
		t.Fatalf("timeline missing expected lanes:\n%s", timeline)
	}
	raw, err := obs.ChromeTrace(spans)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ParseChromeTrace(raw)
	if err != nil {
		t.Fatalf("chrome export does not round-trip: %v", err)
	}
	if len(evs) < len(spans) {
		t.Fatalf("chrome export has %d events for %d spans", len(evs), len(spans))
	}
}
