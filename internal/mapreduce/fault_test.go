package mapreduce

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"knnjoin/internal/dfs"
	"knnjoin/internal/obs"
	"knnjoin/internal/proc"
)

// The recovery matrix: deterministic fault plans kill, stall, freeze and
// corrupt workers at fixed checkpoints, and every scenario must end with
// job output byte-identical to the zero-fault run. Each scenario runs on
// both transports (onBothTransports): the goroutine rows need no process
// and run under -short and the blanket -race job; the process rows spawn
// real worker processes and are skipped under -short.

// faultLease is the lease timeout fault tests run with: long enough that
// a healthy worker under -race never misses it between 1/4-lease
// heartbeats, short enough that recovery stays sub-second.
const faultLease = 350 * time.Millisecond

// TestFaultKillMatrix kills one worker at each lifecycle checkpoint of
// a map or reduce attempt and asserts the job recovers by re-execution
// with byte-identical output. Attempt is pinned to 1 in every event so
// the re-dispatched attempt (which matches the same task selector, but
// runs on a worker whose injector state is fresh) is not killed again.
func TestFaultKillMatrix(t *testing.T) {
	cases := []struct {
		name  string
		task  string
		point FaultPoint
	}{
		{"map-start", "t-wordcount/map/0", AtTaskStart},
		{"mid-map", "t-wordcount/map/1", AtMidTask},
		{"map-pre-commit", "t-wordcount/map/0", AtPreCommit},
		{"map-post-commit", "t-wordcount/map/0", AtPostCommit}, // durable but unreported
		{"mid-reduce", "t-wordcount/reduce/0", AtMidTask},
		{"reduce-pre-commit", "t-wordcount/reduce/1", AtPreCommit},
		{"reduce-post-commit", "t-wordcount/reduce/0", AtPostCommit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := &FaultPlan{Events: []FaultEvent{
				{Worker: -1, Task: tc.task, Attempt: 1, Point: tc.point, Action: ActKill},
			}}
			spec := testJobSpec{In: "in", Out: "out", NumReducers: 3, Mode: "wordcount"}
			onBothTransports(t, Config{Workers: 3, LeaseTimeout: faultLease, Faults: plan},
				func(t *testing.T, cfg Config) {
					js, _ := assertIdentical(t, spec, wordRecords("in", 60), cfg)
					if js.ReexecutedAttempts < 1 {
						t.Fatalf("ReexecutedAttempts = %d, want >= 1 after a kill at %s",
							js.ReexecutedAttempts, tc.name)
					}
				})
		})
	}
}

// TestFaultKillDuringGroupedJob runs the secondary-sort/group-prefix job
// through a mid-reduce kill: recovery must preserve the value ordering
// contract, not just the key sets.
func TestFaultKillDuringGroupedJob(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		{Worker: -1, Task: "t-grouped/reduce/*", Attempt: 1, Point: AtMidTask, Action: ActKill},
	}}
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 3, Mode: "grouped"}
	onBothTransports(t, Config{Workers: 3, LeaseTimeout: faultLease, Faults: plan},
		func(t *testing.T, cfg Config) {
			js, _ := assertIdentical(t, spec, groupRecords("in", 120), cfg)
			if js.ReexecutedAttempts < 1 {
				t.Fatalf("ReexecutedAttempts = %d, want >= 1", js.ReexecutedAttempts)
			}
		})
}

// TestFaultKillDuringMapOnlyJob covers recovery on the map-only output
// path, where map attempts commit job output directly.
func TestFaultKillDuringMapOnlyJob(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		{Worker: -1, Task: "t-maponly/map/2", Attempt: 1, Point: AtPreCommit, Action: ActKill},
	}}
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "maponly"}
	onBothTransports(t, Config{Workers: 3, LeaseTimeout: faultLease, Faults: plan},
		func(t *testing.T, cfg Config) {
			js, _ := assertIdentical(t, spec, wordRecords("in", 80), cfg)
			if js.ReexecutedAttempts < 1 {
				t.Fatalf("ReexecutedAttempts = %d, want >= 1", js.ReexecutedAttempts)
			}
		})
}

// TestFaultDeadWorkerSeenNotWaitedOut gives attempts an hour-long lease
// and kills a worker mid-map: the job can only complete if the worker's
// exit itself returns its task to pending. The job span must say so — a
// worker-exit event, and no lease ever expiring.
func TestFaultDeadWorkerSeenNotWaitedOut(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		{Worker: -1, Task: "t-wordcount/map/1", Attempt: 1, Point: AtMidTask, Action: ActKill},
	}}
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 3, Mode: "wordcount"}
	onBothTransports(t, Config{Workers: 3, LeaseTimeout: time.Hour, Faults: plan},
		func(t *testing.T, cfg Config) {
			cfg.TraceDir = t.TempDir()
			want, _ := runInProcess(t, spec, wordRecords("in", 60))
			fs := diskStore(t, 8)
			wordRecords("in", 60)(fs)
			c, err := NewCluster(fs, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			js, err := c.Run(testKind.New(spec))
			c.Close() // flushes the span files
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			if got, _ := fs.Read(spec.Out); !reflect.DeepEqual(got, want) {
				t.Fatalf("output differs after the kill: %s", firstDiff(got, want))
			}
			if js.ReexecutedAttempts != 1 {
				t.Fatalf("ReexecutedAttempts = %d, want 1 (the killed worker's attempt)", js.ReexecutedAttempts)
			}
			spans, err := obs.ReadDir(cfg.TraceDir)
			if err != nil {
				t.Fatal(err)
			}
			events := map[string]int{}
			for _, sp := range spans {
				if sp.Name == "job:t-wordcount" {
					for _, ev := range sp.Events {
						events[ev.Name]++
					}
				}
			}
			if events["worker-exit"] != 1 || events["lease-expired"] != 0 {
				t.Fatalf("job span events = %v, want one worker-exit and no lease-expired", events)
			}
		})
}

// TestFaultTruncatedRunRepair plants a torn intermediate: a map attempt
// commits its runs, then the last run file loses its tail. The reducer
// that merges it must detect the damage, the scheduler must re-execute
// the producing map task, and the retried reducer must see the fresh
// runs — ending byte-identical to the fault-free run. Goroutine workers
// get a spill directory, or there would be no file to tear.
func TestFaultTruncatedRunRepair(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		{Worker: -1, Task: "t-wordcount/map/0", Attempt: 1, Point: AtPostCommit,
			Action: ActTruncateRun, TruncateBytes: 7},
	}}
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 3, Mode: "wordcount"}
	onBothTransports(t, Config{Workers: 2, LeaseTimeout: faultLease, Faults: plan},
		func(t *testing.T, cfg Config) {
			cfg.Engine.SpillDir = t.TempDir()
			want, _ := runInProcess(t, spec, wordRecords("in", 60))
			got, js, err := runDist(t, spec, wordRecords("in", 60), cfg)
			if err != nil {
				t.Fatalf("faulted run: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("output differs after truncated-run repair: %s", firstDiff(got, want))
			}
			// The repair re-executes the producing map AND retries the reduce.
			if js.ReexecutedAttempts < 2 {
				t.Fatalf("ReexecutedAttempts = %d, want >= 2 (map re-run + reduce retry)", js.ReexecutedAttempts)
			}
			// The map task committed twice (the first commit was invalidated),
			// so worker-process commits exceed the task count.
			if cfg.Workers > 0 && js.WorkerTasks <= js.MapTasks+js.ReduceTasks {
				t.Fatalf("WorkerTasks = %d, want > %d after an invalidated commit",
					js.WorkerTasks, js.MapTasks+js.ReduceTasks)
			}
		})
}

// TestFaultFrozenWorkerDuplicateCompletion freezes a worker (heartbeats
// suspended) after it durably committed a map attempt but before it
// reported. The scheduler presumes it dead, re-runs the task elsewhere,
// and must then discard the thawed worker's late duplicate completion —
// exactly-once output commitment from at-least-once execution.
func TestFaultFrozenWorkerDuplicateCompletion(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		{Worker: -1, Task: "t-wordcount/map/0", Attempt: 1, Point: AtPostCommit,
			Action: ActFreeze, Delay: 4 * faultLease},
	}}
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 3, Mode: "wordcount"}
	onBothTransports(t, Config{Workers: 2, LeaseTimeout: faultLease, Faults: plan},
		func(t *testing.T, cfg Config) {
			js, _ := assertIdentical(t, spec, wordRecords("in", 60), cfg)
			if js.ReexecutedAttempts < 1 {
				t.Fatalf("ReexecutedAttempts = %d, want >= 1 after a lease loss", js.ReexecutedAttempts)
			}
			// assertIdentical already pinned WorkerTasks: had the duplicate
			// completion been double-committed, both that count and the
			// output bytes would differ.
		})
}

// TestFaultStragglerSpeculation stalls one worker mid-map with
// heartbeats alive — a straggler, not a corpse. With speculation enabled
// the scheduler launches a backup attempt on another worker and the job
// finishes long before the stall lifts; without lease expiry the
// re-execution counter stays zero.
func TestFaultStragglerSpeculation(t *testing.T) {
	const stall = 4 * time.Second
	plan := &FaultPlan{Events: []FaultEvent{
		{Worker: -1, Task: "t-wordcount/map/0", Attempt: 1, Point: AtMidTask,
			Action: ActSleep, Delay: stall},
	}}
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "wordcount"}
	onBothTransports(t, Config{
		Workers:          2,
		LeaseTimeout:     800 * time.Millisecond,
		SpeculativeAfter: 150 * time.Millisecond,
		Faults:           plan,
	}, func(t *testing.T, cfg Config) {
		want, _ := runInProcess(t, spec, wordRecords("in", 30))
		start := time.Now()
		got, js, err := runDist(t, spec, wordRecords("in", 30), cfg)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("faulted run: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("output differs under speculation: %s", firstDiff(got, want))
		}
		if js.SpeculativeAttempts < 1 {
			t.Fatalf("SpeculativeAttempts = %d, want >= 1", js.SpeculativeAttempts)
		}
		if js.ReexecutedAttempts != 0 {
			t.Fatalf("ReexecutedAttempts = %d, want 0 — the straggler kept heartbeating", js.ReexecutedAttempts)
		}
		if elapsed >= stall {
			t.Fatalf("job took %v, not under the straggler's %v stall — speculation did not save it", elapsed, stall)
		}
	})
}

// TestFaultPlanReplaysIdentically runs the same fault plan twice:
// deterministic checkpoint-driven injection means both runs recover and
// both end in the same bytes.
func TestFaultPlanReplaysIdentically(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		{Worker: -1, Task: "t-wordcount/map/1", Attempt: 1, Point: AtMidTask, Action: ActKill},
		{Worker: -1, Task: "t-wordcount/reduce/0", Attempt: 1, Point: AtPreCommit, Action: ActKill},
	}}
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "wordcount"}
	onBothTransports(t, Config{Workers: 3, LeaseTimeout: faultLease, Faults: plan},
		func(t *testing.T, cfg Config) {
			var outs [][]dfs.Record
			for i := 0; i < 2; i++ {
				got, js, err := runDist(t, spec, wordRecords("in", 60), cfg)
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if js.ReexecutedAttempts < 2 {
					t.Fatalf("run %d: ReexecutedAttempts = %d, want >= 2 (two kills)", i, js.ReexecutedAttempts)
				}
				outs = append(outs, got)
			}
			if !reflect.DeepEqual(outs[0], outs[1]) {
				t.Fatalf("replayed fault plan produced different output: %s", firstDiff(outs[1], outs[0]))
			}
		})
}

// TestFaultAllWorkersDeadFailsJob kills every worker on its first task:
// with nobody left the job must fail instead of waiting forever, and on
// worker processes the error must report each one's fault-kill exit.
func TestFaultAllWorkersDeadFailsJob(t *testing.T) {
	plan := &FaultPlan{Events: []FaultEvent{
		{Worker: -1, Point: AtTaskStart, Action: ActKill},
	}}
	spec := testJobSpec{In: "in", Out: "out", NumReducers: 2, Mode: "wordcount"}
	onBothTransports(t, Config{Workers: 1, LeaseTimeout: faultLease, Faults: plan},
		func(t *testing.T, cfg Config) {
			_, _, err := runDist(t, spec, wordRecords("in", 20), cfg)
			if err == nil {
				t.Fatal("job with every worker dead reported success")
			}
			if want := fmt.Sprintf("exit status %d", proc.FaultKillExitCode); cfg.Workers > 0 && !strings.Contains(err.Error(), want) {
				t.Fatalf("job error %q does not report the workers' exit (%s)", err, want)
			}
		})
}
