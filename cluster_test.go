package knnjoin

import (
	"errors"
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
// in-process engine and once on three worker processes (PGBJ on one,
// two and three): the multi-process engine must return byte-identical
// results — same neighbor IDs, same distances, same order.
func TestClusterModeMatchesInProcess(t *testing.T) {
	skipClusterShort(t)
	r := dataset.Uniform(300, 4, 100, 11)
	s := dataset.Uniform(340, 4, 100, 12)
	for _, alg := range []Algorithm{PGBJ, PBJ, HBRJ, Broadcast, ZKNN} {
		t.Run(alg.String(), func(t *testing.T) {
			opts := Options{K: 3, Algorithm: alg, Nodes: 4, Seed: 5}
			want, _, err := Join(r, s, opts)
			if err != nil {
				t.Fatalf("in-process: %v", err)
			}
			workers := []int{3}
			if alg == PGBJ {
				workers = []int{1, 2, 3}
			}
			for _, w := range workers {
				opts.Workers = w
				got, st, err := Join(r, s, opts)
				if err != nil {
					t.Fatalf("%d workers: %v", w, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v: output on %d workers differs from in-process output", alg, w)
				}
				assertRanOnWorkers(t, st)
			}
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

// TestJoinToMatchesJoin: JoinTo and RangeJoinTo stream exactly what the
// in-process Join and RangeJoin return — same results, same order, same
// cost counts — for every algorithm, in process, on the disk-backed
// engine under an 8M budget and on two worker processes. An error from
// the callback stops the join and comes back unchanged.
func TestJoinToMatchesJoin(t *testing.T) {
	r, s := forest(300, 1), forest(400, 2)
	engines := []struct {
		name string
		set  func(*Options)
	}{
		{"in-process", func(*Options) {}},
		{"mem-limit-8M", func(o *Options) { o.MemLimit = 8 << 20 }},
		{"workers-2", func(o *Options) { o.Workers = 2 }},
	}
	collect := func(got *[]Result) func(Result) error {
		return func(res Result) error {
			*got = append(*got, res.Clone())
			return nil
		}
	}
	for _, algo := range []Algorithm{PGBJ, PBJ, HBRJ, Broadcast, BruteForce, ZKNN, Auto} {
		base := Options{K: 4, Algorithm: algo, Seed: 3}
		want, wantSt, err := Join(r, s, base)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		for _, e := range engines {
			t.Run(algo.String()+"/"+e.name, func(t *testing.T) {
				if e.name == "workers-2" {
					skipClusterShort(t)
				}
				opts := base
				e.set(&opts)
				var got []Result
				st, err := JoinTo(r, s, opts, collect(&got))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("JoinTo streamed other results than Join returned")
				}
				if st.Pairs != wantSt.Pairs || st.OutputPairs != wantSt.OutputPairs {
					t.Fatalf("JoinTo stats: pairs %d, output %d; Join: %d, %d",
						st.Pairs, st.OutputPairs, wantSt.Pairs, wantSt.OutputPairs)
				}
			})
		}
	}

	ropts := RangeOptions{Radius: 250, Seed: 3}
	want, wantSt, err := RangeJoin(r, s, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if wantSt.OutputPairs <= int64(len(want)) {
		t.Fatalf("radius too small to test: %d pairs over %d rows", wantSt.OutputPairs, len(want))
	}
	for _, e := range engines {
		t.Run("range/"+e.name, func(t *testing.T) {
			if e.name == "workers-2" {
				skipClusterShort(t)
			}
			var o Options
			e.set(&o)
			opts := ropts
			opts.MemLimit, opts.Workers = o.MemLimit, o.Workers
			var got []Result
			st, err := RangeJoinTo(r, s, opts, collect(&got))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || st.OutputPairs != wantSt.OutputPairs {
				t.Fatal("RangeJoinTo streamed other results than RangeJoin returned")
			}
		})
	}

	stop := errors.New("stop")
	calls := 0
	if _, err := JoinTo(r, s, Options{K: 4}, func(Result) error { calls++; return stop }); err != stop || calls != 1 {
		t.Errorf("JoinTo returned %v after %d calls, want the callback's error after 1", err, calls)
	}
}
