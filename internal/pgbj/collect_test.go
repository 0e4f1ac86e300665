package pgbj

import (
	"runtime"
	"runtime/debug"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/mapreduce"
)

// collectOneGroup runs a one-reducer job whose single group holds rows
// 10-d job-2 records, a JoinKey and the coordinates (half R in
// partition 0, half S in partition 1), and returns the GroupBlock
// CollectGroupBlock built plus the heap allocations that call made. A
// merge stream can be read once, so the count is the Mallocs delta
// around the one call, taken the way testing.AllocsPerRun takes it
// (GOMAXPROCS 1, runtime.ReadMemStats), with the collector paused so a
// GC cycle's own bookkeeping cannot add to it; the engine does not
// allocate while a reducer pulls resident values.
func collectOneGroup(t *testing.T, rows int) (*GroupBlock, uint64) {
	t.Helper()
	objs := dataset.Forest(rows, 7)
	recs := make([]dfs.Record, rows)
	for i, o := range objs {
		tg := codec.Tagged{Object: o, Src: codec.FromR, PivotDist: float64(i)}
		if i >= rows/2 {
			tg.Src, tg.Partition = codec.FromS, 1
		}
		recs[i] = codec.EncodeTagged(tg)
	}
	fs := dfs.New(4096)
	if err := fs.Write("in", recs); err != nil {
		t.Fatal(err)
	}
	var gb *GroupBlock
	var mallocs uint64
	_, err := newCluster(t, fs, 1).Run(&mapreduce.Job{
		Name: "collect", Input: []string{"in"}, Output: "out",
		Partition: mapreduce.Uint32Partition, GroupKeyPrefix: codec.JoinKeyGroupPrefix,
		Map: func(_ *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
			tg, coords, err := codec.PeekTagged(rec)
			if err != nil {
				return err
			}
			emit(codec.JoinKey(0, tg), coords)
			return nil
		},
		Reduce: func(_ *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, _ mapreduce.Emit) error {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			gb, err = CollectGroupBlock(values)
			runtime.ReadMemStats(&after)
			mallocs = after.Mallocs - before.Mallocs
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return gb, mallocs
}

// CollectGroupBlock sizes its block once, from the merge stream's
// remaining count, instead of growing it per record: a 64,000-row group
// costs exactly the allocations of a 1,000-row one, and every column
// ends with no spare capacity.
func TestCollectGroupBlockAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	small, smallAllocs := collectOneGroup(t, 1000)
	large, largeAllocs := collectOneGroup(t, 64000)
	if smallAllocs != largeAllocs {
		t.Errorf("CollectGroupBlock made %d allocations for 1,000 rows and %d for 64,000", smallAllocs, largeAllocs)
	}
	for _, gb := range []*GroupBlock{small, large} {
		b := gb.Block
		if len(gb.RParts) != 1 || len(gb.SParts) != 1 {
			t.Fatalf("%d rows: %d R and %d S ranges, want one each", b.Len(), len(gb.RParts), len(gb.SParts))
		}
		if cap(b.IDs) != len(b.IDs) || cap(b.PivotDist) != len(b.PivotDist) || cap(b.Coords) != len(b.Coords) {
			t.Errorf("%d rows: len/cap IDs %d/%d, PivotDist %d/%d, Coords %d/%d, want no spare capacity",
				b.Len(), len(b.IDs), cap(b.IDs), len(b.PivotDist), cap(b.PivotDist), len(b.Coords), cap(b.Coords))
		}
	}
}
