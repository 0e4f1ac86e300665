package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"knnjoin/internal/dfs"
)

func newTestCluster(nodes, chunk int) *Cluster {
	return NewCluster(dfs.New(chunk), nodes)
}

func writeLines(fs dfs.Store, name string, lines ...string) {
	recs := make([]dfs.Record, len(lines))
	for i, l := range lines {
		recs[i] = dfs.Record(l)
	}
	fs.Write(name, recs)
}

// wordCountJob is the canonical end-to-end smoke test of the engine.
func wordCountJob(input, output string, combine bool) *Job {
	j := &Job{
		Name:   "wordcount",
		Input:  []string{input},
		Output: output,
		Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
			for _, w := range strings.Fields(string(rec)) {
				emit([]byte(w), []byte("1"))
			}
			return nil
		},
		Reduce: func(_ *TaskContext, key []byte, values *Values, emit Emit) error {
			total := 0
			for v, ok := values.Next(); ok; v, ok = values.Next() {
				n, err := strconv.Atoi(string(v))
				if err != nil {
					return err
				}
				total += n
			}
			emit(key, []byte(fmt.Sprintf("%s=%d", key, total)))
			return nil
		},
	}
	if combine {
		j.Combine = func(_ *TaskContext, key []byte, values *Values, emit Emit) error {
			total := 0
			for v, ok := values.Next(); ok; v, ok = values.Next() {
				n, _ := strconv.Atoi(string(v))
				total += n
			}
			emit(key, []byte(strconv.Itoa(total)))
			return nil
		}
	}
	return j
}

func readCounts(t *testing.T, fs dfs.Store, name string) map[string]int {
	t.Helper()
	recs, err := fs.Read(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int)
	for _, r := range recs {
		parts := strings.SplitN(string(r), "=", 2)
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatal(err)
		}
		out[parts[0]] = n
	}
	return out
}

func TestWordCount(t *testing.T) {
	c := newTestCluster(4, 2)
	writeLines(c.FS(), "in", "a b a", "b c", "a", "c c c")
	stats, err := c.Run(wordCountJob("in", "out", false))
	if err != nil {
		t.Fatal(err)
	}
	got := readCounts(t, c.FS(), "out")
	want := map[string]int{"a": 3, "b": 2, "c": 4}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%s] = %d, want %d", k, got[k], v)
		}
	}
	if stats.MapTasks != 2 { // 4 records, chunk=2
		t.Errorf("MapTasks = %d, want 2", stats.MapTasks)
	}
	if stats.MapInputRecords != 4 {
		t.Errorf("MapInputRecords = %d, want 4", stats.MapInputRecords)
	}
	if stats.ShuffleRecords != 9 { // 9 words emitted
		t.Errorf("ShuffleRecords = %d, want 9", stats.ShuffleRecords)
	}
	if stats.ReduceGroups != 3 {
		t.Errorf("ReduceGroups = %d, want 3", stats.ReduceGroups)
	}
	if stats.OutputRecords != 3 {
		t.Errorf("OutputRecords = %d, want 3", stats.OutputRecords)
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	lines := []string{"x x x x", "x x x x", "y y y y", "y y y y"}
	run := func(combine bool) (*JobStats, map[string]int) {
		c := newTestCluster(2, 2)
		writeLines(c.FS(), "in", lines...)
		stats, err := c.Run(wordCountJob("in", "out", combine))
		if err != nil {
			t.Fatal(err)
		}
		return stats, readCounts(t, c.FS(), "out")
	}
	plain, gotPlain := run(false)
	combined, gotCombined := run(true)
	for k, v := range gotPlain {
		if gotCombined[k] != v {
			t.Errorf("combiner changed result for %s: %d vs %d", k, gotCombined[k], v)
		}
	}
	if combined.ShuffleRecords >= plain.ShuffleRecords {
		t.Errorf("combiner did not reduce shuffle records: %d vs %d",
			combined.ShuffleRecords, plain.ShuffleRecords)
	}
	if combined.ShuffleBytes >= plain.ShuffleBytes {
		t.Errorf("combiner did not reduce shuffle bytes: %d vs %d",
			combined.ShuffleBytes, plain.ShuffleBytes)
	}
}

// The combiner runs over the map task's sorted run: each invocation must
// see one full key group with every value of that key in this task,
// already in sorted order.
func TestCombinerSeesSortedGroups(t *testing.T) {
	c := newTestCluster(1, 100) // one map task: groups span the whole input
	writeLines(c.FS(), "in", "b a c a b a")
	var mu sync.Mutex
	combineCalls := make(map[string]int)
	var keyOrder []string
	job := wordCountJob("in", "out", true)
	inner := job.Combine
	job.Combine = func(ctx *TaskContext, key []byte, values *Values, emit Emit) error {
		mu.Lock()
		combineCalls[string(key)]++
		keyOrder = append(keyOrder, string(key))
		mu.Unlock()
		return inner(ctx, key, values, emit)
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	for k, n := range combineCalls {
		if n != 1 {
			t.Errorf("combiner called %d times for key %s, want 1 (sorted run groups)", n, k)
		}
	}
	if !sort.StringsAreSorted(keyOrder) {
		t.Errorf("combiner key order %v, want sorted", keyOrder)
	}
	got := readCounts(t, c.FS(), "out")
	if got["a"] != 3 || got["b"] != 2 || got["c"] != 1 {
		t.Errorf("wrong counts after combining: %v", got)
	}
}

func TestMapOnlyJob(t *testing.T) {
	c := newTestCluster(3, 2)
	writeLines(c.FS(), "in", "1", "2", "3", "4", "5")
	job := &Job{
		Name:   "double",
		Input:  []string{"in"},
		Output: "out",
		Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
			n, _ := strconv.Atoi(string(rec))
			emit(nil, []byte(strconv.Itoa(2*n)))
			return nil
		},
	}
	stats, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShuffleRecords != 0 || stats.ShuffleBytes != 0 {
		t.Error("map-only job should not shuffle")
	}
	recs, _ := c.FS().Read("out")
	if len(recs) != 5 {
		t.Fatalf("got %d output records", len(recs))
	}
	// Map-only output preserves split order.
	for i, want := range []string{"2", "4", "6", "8", "10"} {
		if string(recs[i]) != want {
			t.Fatalf("out[%d] = %s, want %s", i, recs[i], want)
		}
	}
}

func TestReduceKeysSorted(t *testing.T) {
	c := newTestCluster(1, 100)
	writeLines(c.FS(), "in", "b", "a", "c", "a")
	var mu sync.Mutex
	var order []string
	job := &Job{
		Name:        "order",
		Input:       []string{"in"},
		Output:      "out",
		NumReducers: 1,
		Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
			emit(rec, rec)
			return nil
		},
		Reduce: func(_ *TaskContext, key []byte, values *Values, emit Emit) error {
			mu.Lock()
			order = append(order, string(key))
			mu.Unlock()
			emit(key, key)
			return nil
		},
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(order) {
		t.Fatalf("reduce key order = %v, want sorted", order)
	}
}

// uint32Key is a test-local big-endian key encoder (the production one
// lives in internal/codec, which this package must not import).
func uint32Key(v uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, v)
}

// Regression for the string-keyed engine's ordering footgun: numeric keys
// sorted as decimal strings put "10" before "9". Binary big-endian keys
// must reach the reducer in true numeric order, and the job's output must
// be byte-identical across runs.
func TestNumericKeyOrderAndDeterminism(t *testing.T) {
	run := func() ([]uint32, []dfs.Record) {
		c := newTestCluster(4, 3)
		lines := make([]string, 25)
		for i := range lines {
			lines[i] = strconv.Itoa(24 - i) // emitted in descending order
		}
		writeLines(c.FS(), "in", lines...)
		var mu sync.Mutex
		var order []uint32
		job := &Job{
			Name:        "numeric",
			Input:       []string{"in"},
			Output:      "out",
			NumReducers: 1,
			Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
				n, _ := strconv.Atoi(string(rec))
				emit(uint32Key(uint32(n)), rec)
				return nil
			},
			Reduce: func(_ *TaskContext, key []byte, values *Values, emit Emit) error {
				mu.Lock()
				order = append(order, binary.BigEndian.Uint32(key))
				mu.Unlock()
				for v, ok := values.Next(); ok; v, ok = values.Next() {
					emit(key, v)
				}
				return nil
			},
		}
		if _, err := c.Run(job); err != nil {
			t.Fatal(err)
		}
		recs, _ := c.FS().Read("out")
		return order, recs
	}
	order, out1 := run()
	for i, k := range order {
		if int(k) != i {
			t.Fatalf("reduce key order %v, want 0..24 ascending (string sort would give 0,1,10,11,...)", order)
		}
	}
	_, out2 := run()
	if len(out1) != len(out2) {
		t.Fatalf("output size differs across runs: %d vs %d", len(out1), len(out2))
	}
	for i := range out1 {
		if !bytes.Equal(out1[i], out2[i]) {
			t.Fatalf("output record %d differs across runs: %q vs %q", i, out1[i], out2[i])
		}
	}
}

// Secondary sort via ValueCompare: values of one key arrive ordered by
// the comparator even though they were emitted shuffled across map tasks.
func TestSecondarySortValueCompare(t *testing.T) {
	c := newTestCluster(4, 2) // several map tasks: merge must interleave
	writeLines(c.FS(), "in", "9", "3", "7", "1", "8", "2", "6", "4", "5", "0")
	var mu sync.Mutex
	var got []string
	job := &Job{
		Name:        "secsort",
		Input:       []string{"in"},
		Output:      "out",
		NumReducers: 2,
		Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
			emit([]byte("k"), rec)
			return nil
		},
		ValueCompare: func(a, b []byte) int { return bytes.Compare(a, b) },
		Reduce: func(_ *TaskContext, key []byte, values *Values, emit Emit) error {
			mu.Lock()
			defer mu.Unlock()
			for v, ok := values.Next(); ok; v, ok = values.Next() {
				got = append(got, string(v))
				emit(key, v)
			}
			return nil
		},
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("values arrived unsorted under ValueCompare: %v", got)
	}
	if len(got) != 10 {
		t.Fatalf("got %d values, want 10", len(got))
	}
}

// Composite keys with GroupKeyPrefix: one reduce call per 4-byte prefix,
// values streamed in full-key (suffix) order — Hadoop's grouping
// comparator pattern, which the pivot joins use to shuffle-sort their S
// partitions by pivot distance.
func TestGroupKeyPrefixSecondarySort(t *testing.T) {
	c := newTestCluster(3, 2)
	var lines []string
	for i := 0; i < 12; i++ {
		lines = append(lines, strconv.Itoa(i))
	}
	writeLines(c.FS(), "in", lines...)
	var mu sync.Mutex
	groups := make(map[uint32][]uint32) // group id → suffix arrival order
	var calls int
	job := &Job{
		Name:           "prefix",
		Input:          []string{"in"},
		Output:         "out",
		NumReducers:    2,
		GroupKeyPrefix: 4,
		Partition:      Uint32Partition,
		Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
			n, _ := strconv.Atoi(string(rec))
			// key = group(n%2) | suffix(11-n): suffix descends as n rises.
			key := uint32Key(uint32(n % 2))
			key = binary.BigEndian.AppendUint32(key, uint32(11-n))
			emit(key, rec)
			return nil
		},
		Reduce: func(_ *TaskContext, key []byte, values *Values, emit Emit) error {
			g := binary.BigEndian.Uint32(key)
			mu.Lock()
			defer mu.Unlock()
			calls++
			for {
				full := values.Key()
				v, ok := values.Next()
				if !ok {
					break
				}
				if binary.BigEndian.Uint32(full) != g {
					t.Errorf("value of group %d carried key prefix %d", g, binary.BigEndian.Uint32(full))
				}
				groups[g] = append(groups[g], binary.BigEndian.Uint32(full[4:]))
				emit(key, v)
			}
			return nil
		},
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("reduce calls = %d, want 2 (one per group prefix)", calls)
	}
	for g, suffixes := range groups {
		if len(suffixes) != 6 {
			t.Fatalf("group %d got %d values, want 6", g, len(suffixes))
		}
		for i := 1; i < len(suffixes); i++ {
			if suffixes[i] < suffixes[i-1] {
				t.Fatalf("group %d suffixes not ascending: %v", g, suffixes)
			}
		}
	}
}

func TestSetupHooksRunPerTask(t *testing.T) {
	c := newTestCluster(2, 1) // 4 records, chunk=1 → 4 map tasks
	writeLines(c.FS(), "in", "1", "2", "3", "4")
	var mapSetups, reduceSetups int64
	var mu sync.Mutex
	job := &Job{
		Name:        "setup",
		Input:       []string{"in"},
		Output:      "out",
		NumReducers: 3,
		MapSetup: func(ctx *TaskContext) error {
			mu.Lock()
			mapSetups++
			mu.Unlock()
			if !strings.Contains(ctx.TaskID, "/map/") {
				t.Errorf("bad map TaskID %s", ctx.TaskID)
			}
			return nil
		},
		ReduceSetup: func(ctx *TaskContext) error {
			mu.Lock()
			reduceSetups++
			mu.Unlock()
			return nil
		},
		Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
			emit(rec, rec)
			return nil
		},
		Reduce: func(_ *TaskContext, key []byte, _ *Values, emit Emit) error {
			emit(key, key)
			return nil
		},
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	if mapSetups != 4 {
		t.Errorf("map setups = %d, want 4", mapSetups)
	}
	if reduceSetups != 3 {
		t.Errorf("reduce setups = %d, want 3", reduceSetups)
	}
}

func TestSideData(t *testing.T) {
	c := newTestCluster(2, 10)
	writeLines(c.FS(), "in", "x")
	job := &Job{
		Name:   "side",
		Input:  []string{"in"},
		Output: "out",
		Side:   map[string]any{"factor": 7},
		Map: func(ctx *TaskContext, rec dfs.Record, emit Emit) error {
			f := ctx.Side("factor").(int)
			emit(nil, []byte(strconv.Itoa(f)))
			if ctx.Side("missing") != nil {
				t.Error("missing side data should be nil")
			}
			return nil
		},
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	recs, _ := c.FS().Read("out")
	if string(recs[0]) != "7" {
		t.Fatalf("side data not delivered: %s", recs[0])
	}
}

func TestUserCounters(t *testing.T) {
	c := newTestCluster(2, 2)
	writeLines(c.FS(), "in", "a", "b", "c")
	job := &Job{
		Name:   "counters",
		Input:  []string{"in"},
		Output: "out",
		Map: func(ctx *TaskContext, rec dfs.Record, emit Emit) error {
			ctx.Counter("records", 1)
			ctx.AddWork(10)
			emit(nil, rec)
			return nil
		},
	}
	stats, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["records"] != 3 {
		t.Errorf("records counter = %d, want 3", stats.Counters["records"])
	}
	if stats.SimMapMakespan <= 0 {
		t.Error("expected positive simulated makespan")
	}
}

// faultCluster is newTestCluster with a fault plan for its goroutine
// workers.
func faultCluster(t *testing.T, nodes, chunk int, events ...FaultEvent) *Cluster {
	t.Helper()
	c, err := NewDistCluster(dfs.New(chunk), nodes, DistConfig{Faults: &FaultPlan{Events: events}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTaskRetrySucceeds(t *testing.T) {
	// The first attempt of every task fails halfway through its work.
	var events []FaultEvent
	for _, task := range []string{"map/0", "map/1", "reduce/0", "reduce/1"} {
		events = append(events, FaultEvent{Worker: -1, Task: "wordcount/" + task, Attempt: 1,
			Point: AtMidTask, Action: ActError})
	}
	c := faultCluster(t, 2, 2, events...)
	writeLines(c.FS(), "in", "a", "b", "c", "d")
	job := wordCountJob("in", "out", false)
	job.MaxAttempts = 3
	var mapped atomic.Int64
	countWords := job.Map
	job.Map = func(ctx *TaskContext, rec dfs.Record, emit Emit) error {
		mapped.Add(1)
		return countWords(ctx, rec, emit)
	}
	stats, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Load() <= 4 {
		t.Fatalf("map ran %d times over 4 records: the fault plan never fired", mapped.Load())
	}
	got := readCounts(t, c.FS(), "out")
	if got["a"]+got["b"]+got["c"]+got["d"] != 4 {
		t.Fatalf("wrong result after retries: %v", got)
	}
	if stats.MapInputRecords != 4 {
		t.Errorf("MapInputRecords = %d", stats.MapInputRecords)
	}
}

func TestTaskFailsAfterMaxAttempts(t *testing.T) {
	c := faultCluster(t, 2, 2,
		FaultEvent{Worker: -1, Task: "wordcount/map/*", Attempt: 1, Point: AtTaskStart, Action: ActError},
		FaultEvent{Worker: -1, Task: "wordcount/map/*", Attempt: 2, Point: AtTaskStart, Action: ActError})
	writeLines(c.FS(), "in", "a")
	job := wordCountJob("in", "out", false)
	job.MaxAttempts = 2
	if _, err := c.Run(job); err == nil {
		t.Fatal("expected job failure")
	} else if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestMapErrorAborts(t *testing.T) {
	c := newTestCluster(1, 10)
	writeLines(c.FS(), "in", "boom")
	job := &Job{
		Name:   "err",
		Input:  []string{"in"},
		Output: "out",
		Map: func(_ *TaskContext, _ dfs.Record, _ Emit) error {
			return errors.New("map exploded")
		},
	}
	if _, err := c.Run(job); err == nil || !strings.Contains(err.Error(), "map exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestReduceErrorAborts(t *testing.T) {
	c := newTestCluster(1, 10)
	writeLines(c.FS(), "in", "x")
	job := wordCountJob("in", "out", false)
	job.Reduce = func(_ *TaskContext, _ []byte, _ *Values, _ Emit) error {
		return errors.New("reduce exploded")
	}
	if _, err := c.Run(job); err == nil || !strings.Contains(err.Error(), "reduce exploded") {
		t.Fatalf("err = %v", err)
	}
}

// A reduce function that returns without draining its group must not
// derail the following groups — the engine drains the remainder.
func TestReduceMaySkipValues(t *testing.T) {
	c := newTestCluster(2, 2)
	writeLines(c.FS(), "in", "a a a", "b b", "c")
	var mu sync.Mutex
	var keys []string
	job := &Job{
		Name:        "skip",
		Input:       []string{"in"},
		Output:      "out",
		NumReducers: 1,
		Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
			for _, w := range strings.Fields(string(rec)) {
				emit([]byte(w), []byte(w))
			}
			return nil
		},
		Reduce: func(_ *TaskContext, key []byte, values *Values, emit Emit) error {
			mu.Lock()
			keys = append(keys, string(key))
			mu.Unlock()
			values.Next() // consume one value, abandon the rest
			emit(key, key)
			return nil
		},
	}
	js, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	if strings.Join(keys, "") != "abc" {
		t.Fatalf("reduce keys = %v, want one call each for a, b, c", keys)
	}
	if js.ReduceGroups != 3 {
		t.Fatalf("ReduceGroups = %d, want 3", js.ReduceGroups)
	}
}

func TestJobValidation(t *testing.T) {
	c := newTestCluster(1, 10)
	if _, err := c.Run(&Job{Name: "nomap", Output: "o"}); err == nil {
		t.Error("job without Map accepted")
	}
	if _, err := c.Run(&Job{Name: "noout", Map: func(*TaskContext, dfs.Record, Emit) error { return nil }}); err == nil {
		t.Error("job without Output accepted")
	}
	job := wordCountJob("missing", "out", false)
	if _, err := c.Run(job); err == nil {
		t.Error("job with missing input accepted")
	}
	combined := wordCountJob("in", "out", true)
	combined.Reduce = nil
	if _, err := c.Run(combined); err == nil {
		t.Error("map-only job with a combiner accepted (combiner would be silently skipped)")
	}
}

func TestCustomPartitioner(t *testing.T) {
	c := newTestCluster(4, 100)
	writeLines(c.FS(), "in", "0", "1", "2", "3", "4", "5")
	var mu sync.Mutex
	seen := make(map[string]string) // key -> taskID
	job := &Job{
		Name:        "part",
		Input:       []string{"in"},
		Output:      "out",
		NumReducers: 3,
		Partition: func(key []byte, n int) int {
			v, _ := strconv.Atoi(string(key))
			return v % n
		},
		Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
			emit(rec, rec)
			return nil
		},
		Reduce: func(ctx *TaskContext, key []byte, _ *Values, emit Emit) error {
			mu.Lock()
			seen[string(key)] = ctx.TaskID
			mu.Unlock()
			emit(key, key)
			return nil
		},
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	for key, task := range seen {
		v, _ := strconv.Atoi(key)
		want := fmt.Sprintf("part/reduce/%d", v%3)
		if task != want {
			t.Errorf("key %s reduced on %s, want %s", key, task, want)
		}
	}
}

func TestDefaultPartitionInRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		k := []byte(strconv.Itoa(i))
		for _, n := range []int{1, 2, 7, 16} {
			if p := DefaultPartition(k, n); p < 0 || p >= n {
				t.Fatalf("DefaultPartition(%q,%d) = %d", k, n, p)
			}
		}
	}
}

func TestUint32Partition(t *testing.T) {
	for i := 0; i < 100; i++ {
		key := uint32Key(uint32(i))
		for _, n := range []int{1, 3, 16} {
			if p := Uint32Partition(key, n); p != i%n {
				t.Fatalf("Uint32Partition(%d,%d) = %d, want %d", i, n, p, i%n)
			}
		}
	}
	if p := Uint32Partition([]byte{1}, 4); p != 0 {
		t.Fatalf("short key partition = %d, want 0", p)
	}
}

func TestMakespan(t *testing.T) {
	tests := []struct {
		work  []int64
		nodes int
		want  int64
	}{
		{nil, 4, 0},
		{[]int64{10}, 4, 10},
		{[]int64{5, 5, 5, 5}, 2, 10},
		{[]int64{8, 1, 1, 1, 1}, 2, 8},
		{[]int64{3, 3, 3}, 1, 9},
	}
	for _, tc := range tests {
		if got := makespan(tc.work, tc.nodes); got != tc.want {
			t.Errorf("makespan(%v,%d) = %d, want %d", tc.work, tc.nodes, got, tc.want)
		}
	}
}

// Property: the shuffle delivers every emitted record to exactly one
// reducer, for arbitrary inputs, cluster sizes and reducer counts.
func TestExactlyOnceDeliveryQuick(t *testing.T) {
	f := func(words []string, nodesRaw, reducersRaw, chunkRaw uint8) bool {
		nodes := int(nodesRaw)%8 + 1
		reducers := int(reducersRaw)%8 + 1
		chunk := int(chunkRaw)%5 + 1
		c := NewCluster(dfs.New(chunk), nodes)
		lines := make([]dfs.Record, 0, len(words))
		expected := make(map[string]int)
		for i, w := range words {
			// Sanitize into a deterministic, printable key.
			key := fmt.Sprintf("w%d_%d", len(w), i%7)
			lines = append(lines, dfs.Record(key))
			expected[key]++
		}
		c.FS().Write("in", lines)
		var mu sync.Mutex
		delivered := make(map[string]int)
		job := &Job{
			Name:        "once",
			Input:       []string{"in"},
			Output:      "out",
			NumReducers: reducers,
			Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
				emit(rec, rec)
				return nil
			},
			Reduce: func(_ *TaskContext, key []byte, values *Values, emit Emit) error {
				n := len(values.Collect())
				mu.Lock()
				delivered[string(key)] += n
				mu.Unlock()
				return nil
			},
		}
		if _, err := c.Run(job); err != nil {
			return false
		}
		if len(delivered) != len(expected) {
			return false
		}
		for k, v := range expected {
			if delivered[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: results are independent of cluster size and chunk size —
// parallelism must never change the answer.
func TestDeterminismAcrossClusterShapes(t *testing.T) {
	lines := make([]string, 100)
	for i := range lines {
		lines[i] = fmt.Sprintf("k%d v", i%13)
	}
	var baseline map[string]int
	for _, shape := range []struct{ nodes, chunk int }{{1, 1000}, {2, 7}, {8, 3}, {16, 1}} {
		c := newTestCluster(shape.nodes, shape.chunk)
		writeLines(c.FS(), "in", lines...)
		if _, err := c.Run(wordCountJob("in", "out", true)); err != nil {
			t.Fatal(err)
		}
		got := readCounts(t, c.FS(), "out")
		if baseline == nil {
			baseline = got
			continue
		}
		if len(got) != len(baseline) {
			t.Fatalf("shape %+v changed result size", shape)
		}
		for k, v := range baseline {
			if got[k] != v {
				t.Fatalf("shape %+v: count[%s] = %d, want %d", shape, k, got[k], v)
			}
		}
	}
}

func TestEmptyInputFile(t *testing.T) {
	c := newTestCluster(2, 4)
	c.FS().Write("in", nil)
	stats, err := c.Run(wordCountJob("in", "out", false))
	if err != nil {
		t.Fatal(err)
	}
	if stats.MapTasks != 0 || stats.OutputRecords != 0 {
		t.Fatalf("empty input stats = %+v", stats)
	}
	recs, err := c.FS().Read("out")
	if err != nil || len(recs) != 0 {
		t.Fatalf("output = %v, %v", recs, err)
	}
}

func TestReduceTaskRetry(t *testing.T) {
	c := faultCluster(t, 2, 2,
		FaultEvent{Worker: -1, Task: "wordcount/reduce/0", Attempt: 1, Point: AtPreCommit, Action: ActError},
		FaultEvent{Worker: -1, Task: "wordcount/reduce/1", Attempt: 1, Point: AtPreCommit, Action: ActError})
	writeLines(c.FS(), "in", "a", "b")
	job := wordCountJob("in", "out", false)
	job.MaxAttempts = 2
	var reduced atomic.Int64
	sum := job.Reduce
	job.Reduce = func(ctx *TaskContext, key []byte, values *Values, emit Emit) error {
		reduced.Add(1)
		return sum(ctx, key, values, emit)
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	if reduced.Load() <= 2 {
		t.Fatalf("reduce ran %d times over 2 keys: the fault plan never fired", reduced.Load())
	}
	got := readCounts(t, c.FS(), "out")
	if got["a"] != 1 || got["b"] != 1 {
		t.Fatalf("wrong result after reduce retries: %v", got)
	}
}

// A reduce retry must replay the merge stream from the start: the second
// attempt sees every group, fully ordered, even though the first attempt
// consumed part of the stream before failing.
func TestReduceRetryReplaysStream(t *testing.T) {
	c := newTestCluster(2, 2)
	writeLines(c.FS(), "in", "a b c d", "a b c d")
	var mu sync.Mutex
	attempts := 0
	counted := make(map[string]int)
	job := &Job{
		Name:        "replay",
		Input:       []string{"in"},
		Output:      "out",
		NumReducers: 1,
		MaxAttempts: 2,
		Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
			for _, w := range strings.Fields(string(rec)) {
				emit([]byte(w), []byte("1"))
			}
			return nil
		},
		Reduce: func(_ *TaskContext, key []byte, values *Values, emit Emit) error {
			n := len(values.Collect())
			mu.Lock()
			defer mu.Unlock()
			// Fail mid-stream on the first attempt, after consuming "a".
			if attempts == 0 && string(key) == "a" {
				attempts++
				return errors.New("mid-stream fault")
			}
			counted[string(key)] = n
			emit(key, key)
			return nil
		},
	}
	if _, err := c.Run(job); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		if counted[k] != 2 {
			t.Fatalf("after retry, key %s counted %d values, want 2 (stream not replayed?)", k, counted[k])
		}
	}
}

func TestMoreReducersThanNodes(t *testing.T) {
	c := newTestCluster(2, 10)
	writeLines(c.FS(), "in", "a b c d e f g h")
	job := wordCountJob("in", "out", false)
	job.NumReducers = 16
	stats, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReduceTasks != 16 {
		t.Fatalf("ReduceTasks = %d", stats.ReduceTasks)
	}
	if got := readCounts(t, c.FS(), "out"); len(got) != 8 {
		t.Fatalf("got %d words", len(got))
	}
}

func TestNewClusterPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCluster(dfs.New(0), 0)
}

func BenchmarkWordCount(b *testing.B) {
	lines := make([]string, 2000)
	for i := range lines {
		lines[i] = fmt.Sprintf("alpha beta g%d delta", i%97)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := newTestCluster(8, 256)
		writeLines(c.FS(), "in", lines...)
		if _, err := c.Run(wordCountJob("in", "out", true)); err != nil {
			b.Fatal(err)
		}
	}
}

// Properties of the simulated scheduler: the makespan of any task set on
// n nodes is at least the largest task and at most the serial total, and
// adding nodes never hurts.
func TestMakespanBoundsQuick(t *testing.T) {
	f := func(workRaw []uint16, nRaw uint8) bool {
		n := int(nRaw)%16 + 1
		work := make([]int64, len(workRaw))
		var total, max int64
		for i, w := range workRaw {
			work[i] = int64(w)
			total += int64(w)
			if int64(w) > max {
				max = int64(w)
			}
		}
		m := makespan(work, n)
		if len(work) == 0 {
			return m == 0
		}
		if m < max || m > total {
			return false
		}
		return makespan(work, n+1) <= m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReduceSkewAccounting(t *testing.T) {
	c := newTestCluster(4, 2)
	writeLines(c.FS(), "in", "a b c d e f g h", "a a a a a a a a")
	job := &Job{
		Name:   "skew",
		Input:  []string{"in"},
		Output: "out",
		Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
			for _, w := range strings.Fields(string(rec)) {
				emit([]byte(w), []byte("1"))
			}
			return nil
		},
		Reduce: func(_ *TaskContext, key []byte, values *Values, emit Emit) error {
			emit(key, key)
			return nil
		},
		NumReducers: 4,
	}
	js, err := c.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(js.ReduceInputRecords) != 4 {
		t.Fatalf("per-reducer records = %v, want 4 entries", js.ReduceInputRecords)
	}
	var total int64
	for _, n := range js.ReduceInputRecords {
		total += n
	}
	if total != js.ShuffleRecords {
		t.Fatalf("per-reducer sum %d != shuffle records %d", total, js.ShuffleRecords)
	}
	// The duplicated word lands on one reducer: skew must exceed 1; and it
	// can never exceed the reducer count.
	skew := js.ReduceSkew()
	if skew <= 1 || skew > 4 {
		t.Fatalf("skew = %v, want in (1, 4]", skew)
	}
}

func TestReduceSkewPerfectBalance(t *testing.T) {
	js := JobStats{ReduceInputRecords: []int64{5, 5, 5, 5}}
	if s := js.ReduceSkew(); s != 1 {
		t.Fatalf("balanced skew = %v, want 1", s)
	}
	empty := JobStats{ReduceInputRecords: []int64{0, 0}}
	if s := empty.ReduceSkew(); s != 0 {
		t.Fatalf("empty skew = %v, want 0", s)
	}
	none := JobStats{}
	if s := none.ReduceSkew(); s != 0 {
		t.Fatalf("no-reduce skew = %v, want 0", s)
	}
}

// The k-way merge itself, on adversarial run shapes: interleaved,
// disjoint, duplicate-heavy and empty runs must come out fully sorted
// with every record present exactly once.
func TestMergerProperties(t *testing.T) {
	runs := [][]KV{
		{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("c"), Value: []byte("2")}, {Key: []byte("e"), Value: []byte("3")}},
		{},
		{{Key: []byte("a"), Value: []byte("4")}, {Key: []byte("a"), Value: []byte("5")}, {Key: []byte("b"), Value: []byte("6")}},
		{{Key: []byte("e"), Value: []byte("7")}},
	}
	m := newMerger(runs, nil)
	var keys, vals []string
	for {
		kv, ok := m.peek()
		if !ok {
			break
		}
		m.pop()
		keys = append(keys, string(kv.Key))
		vals = append(vals, string(kv.Value))
	}
	if got := strings.Join(keys, ""); got != "aaabcee" {
		t.Fatalf("merged key order = %q, want aaabcee", got)
	}
	// Ties break by run index: run 0's "a" precedes run 2's.
	if got := strings.Join(vals, ""); got != "1456237" {
		t.Fatalf("merged value order = %q, want 1456237 (run-order ties)", got)
	}
}

// A failing map task must short-circuit a large job: once the scheduler
// has recorded the failure it dispatches no further attempt, so the
// remaining splits are never mapped and then discarded. The count is
// taken from the task table with the test playing both workers against
// the scheduler, so goroutine timing cannot move it.
func TestFailingMapTaskShortCircuitsJob(t *testing.T) {
	fs := dfs.New(1) // one record per split
	const splits = 5000
	lines := make([]string, splits)
	for i := range lines {
		lines[i] = strconv.Itoa(i)
	}
	writeLines(fs, "in", lines...)
	c := NewCluster(fs, 2)
	poisoned := errors.New("poisoned record")
	job := &Job{
		Name:   "failfast",
		Input:  []string{"in"},
		Output: "out",
		Map: func(_ *TaskContext, rec dfs.Record, emit Emit) error {
			if string(rec) == "0" {
				return poisoned
			}
			emit(rec, rec)
			return nil
		},
		Reduce: func(_ *TaskContext, key []byte, values *Values, emit Emit) error {
			emit(key, key)
			return nil
		},
	}
	if _, err := c.Run(job); !errors.Is(err, poisoned) {
		t.Fatalf("job with a poisoned split: err = %v, want the map error", err)
	}

	in, err := fs.Splits("in")
	if err != nil {
		t.Fatal(err)
	}
	j := c.newCoordJob(job, in)
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	first, second := c.assignLocked(j, 0, now), c.assignLocked(j, 1, now)
	if first == nil || second == nil || first.Index != 0 || second.Index != 1 {
		t.Fatalf("first assignments %+v, %+v: want map tasks 0 and 1", first, second)
	}
	c.completeLocked(j, &completion{Worker: 0, Phase: "map", Index: 0, Attempt: first.Attempt,
		Err: poisoned.Error(), err: poisoned})
	if !j.completed || !errors.Is(j.err, poisoned) {
		t.Fatalf("the failed attempt did not fail the job (completed=%v, err=%v)", j.completed, j.err)
	}
	// The other worker finishes its split after the failure, then both
	// ask for more work.
	if c.completeLocked(j, &completion{Worker: 1, Phase: "map", Index: 1, Attempt: second.Attempt}) {
		t.Fatal("a map attempt committed after the job failed")
	}
	c.assignLocked(j, 0, now)
	c.assignLocked(j, 1, now)
	dispatched := 0
	for i := range j.maps {
		dispatched += j.maps[i].attempts
	}
	if after := dispatched - 2; after != 0 {
		t.Fatalf("%d map attempts dispatched after the failure was recorded, want 0", after)
	}
}
