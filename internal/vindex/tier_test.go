package vindex

import (
	"bytes"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/dfs"
	"knnjoin/internal/driver"
	"knnjoin/internal/mapreduce"
	"knnjoin/internal/pgbj"
	"knnjoin/internal/vector"
)

// reducerTier runs one MapReduce job whose single reduce group holds
// every object of objs and returns the tier collect gave the block it
// built from that group — the tier a join reducer would scan on. A keyed
// collector gets the pivot-based joins' job-2 records (a JoinKey and the
// coordinates), the others whole Tagged records.
func reducerTier(t *testing.T, objs []codec.Object, keyed bool, collect func(*mapreduce.Values) (*vector.Block, error)) vector.Kernel {
	t.Helper()
	fs := dfs.New(64)
	if err := dataset.ToDFS(fs, "S", objs, codec.FromS); err != nil {
		t.Fatal(err)
	}
	cluster, err := mapreduce.NewCluster(fs, 1, mapreduce.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got vector.Kernel
	_, err = cluster.Run(&mapreduce.Job{
		Name:           "tier",
		Input:          []string{"S"},
		Output:         "out",
		GroupKeyPrefix: codec.JoinKeyGroupPrefix,
		Map: func(_ *mapreduce.TaskContext, rec dfs.Record, emit mapreduce.Emit) error {
			if !keyed {
				emit([]byte("g"), rec)
				return nil
			}
			tg, coords, err := codec.PeekTagged(rec)
			if err != nil {
				return err
			}
			emit(codec.JoinKey(0, tg), coords)
			return nil
		},
		Reduce: func(_ *mapreduce.TaskContext, _ []byte, values *mapreduce.Values, _ mapreduce.Emit) error {
			blk, err := collect(values)
			if err != nil {
				return err
			}
			got = blk.ActiveKernel()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// The tier policy is applied where blocks are built: a reducer group or
// an index partition of ≥ 128 rows at d ≥ 8 scans quantized, a 2-d one
// or a 10-d one under 128 rows stays on the fused block kernel, and an
// index built and the same index loaded from its file agree block for
// block.
func TestTierPolicyAtBuildSites(t *testing.T) {
	collectors := map[string]func(*mapreduce.Values) (*vector.Block, error){
		"codec.DecodeBlock": func(v *mapreduce.Values) (*vector.Block, error) {
			blk, _, _, err := codec.DecodeBlock(v.Collect())
			return blk, err
		},
		"driver.CollectRSBlocks": func(v *mapreduce.Values) (*vector.Block, error) {
			_, s, err := driver.CollectRSBlocks(v)
			return s, err
		},
		"pgbj.CollectGroupBlock": func(v *mapreduce.Values) (*vector.Block, error) {
			gb, err := pgbj.CollectGroupBlock(v)
			if err != nil {
				return nil, err
			}
			return gb.Block, nil
		},
	}
	for _, tc := range []struct {
		name      string
		rows, dim int
		want      vector.Kernel
	}{
		{"10-d, 128 rows", 128, 10, vector.KernelQuantized},
		{"10-d, 127 rows", 127, 10, vector.KernelBlock},
		{"2-d, 512 rows", 512, 2, vector.KernelBlock},
	} {
		objs := dataset.Uniform(tc.rows, tc.dim, 100, 1)
		for name, collect := range collectors {
			if got := reducerTier(t, objs, name == "pgbj.CollectGroupBlock", collect); got != tc.want {
				t.Errorf("%s: %s gave %v, want %v", tc.name, name, got, tc.want)
			}
		}
		// One pivot puts every object in one partition block.
		ix, err := Build(objs, Options{NumPivots: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.blocks[0].ActiveKernel(); got != tc.want {
			t.Errorf("%s: vindex.Build gave %v, want %v", tc.name, got, tc.want)
		}
	}

	// Build and Load give every block of a many-partition index the
	// tier its shape picks — partitions on both sides of 128 rows.
	objs := dataset.Forest(6000, 2)
	ix, err := Build(objs, Options{NumPivots: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := ix.Save(&file); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(&file)
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[vector.Kernel]int{}
	for j, blk := range ix.blocks {
		want := vector.AutoTier(blk.Dim, blk.Len())
		if got := blk.ActiveKernel(); got != want {
			t.Errorf("Build: block %d (%d rows) on %v, want %v", j, blk.Len(), got, want)
		}
		if got := ld.blocks[j].ActiveKernel(); got != want {
			t.Errorf("Load: block %d (%d rows) on %v, want %v", j, blk.Len(), got, want)
		}
		tiers[want]++
	}
	if tiers[vector.KernelQuantized] == 0 || tiers[vector.KernelBlock] == 0 {
		t.Fatalf("index exercises only one tier: %v", tiers)
	}
}
