package shard

import (
	"bytes"
	"math"
	"testing"

	"knnjoin/internal/codec"
	"knnjoin/internal/dataset"
	"knnjoin/internal/vector"
	"knnjoin/internal/vindex"
)

func buildIndex(t *testing.T, objs []codec.Object) *vindex.Index {
	t.Helper()
	ix, err := vindex.Build(objs, vindex.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// metaOf is the router's view of ix: ix saved, then loaded with
// NoCells, as StartCluster and Cluster.Reload load it.
func metaOf(t *testing.T, ix *vindex.Index) *vindex.Index {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	meta, err := vindex.Load(&buf, vindex.NoCells)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// localScan executes scan requests against the full index in-process,
// recording which shards were contacted and checking the router never
// sends a shard a partition it does not own.
type localScan struct {
	t         *testing.T
	ix        *vindex.Index
	cells     [][]int
	contacted map[int]bool
	rpcs      int
}

func newLocalScan(t *testing.T, ix *vindex.Index, cells [][]int) *localScan {
	return &localScan{t: t, ix: ix, cells: cells, contacted: map[int]bool{}}
}

func (l *localScan) owns(sh, j int) bool {
	for _, c := range l.cells[sh] {
		if c == j {
			return true
		}
	}
	return false
}

func (l *localScan) scan(sh int, req *ScanRequest) (*ScanResponse, error) {
	l.contacted[sh] = true
	l.rpcs++
	for _, p := range req.Parts {
		if !l.owns(sh, p.J) {
			l.t.Errorf("router sent partition %d to shard %d, which does not own it", p.J, sh)
		}
	}
	return execScan(l.ix, req)
}

func (l *localScan) rangeScan(sh int, req *RangeScanRequest) (*RangeScanResponse, error) {
	l.contacted[sh] = true
	for _, p := range req.Parts {
		if !l.owns(sh, p.J) {
			l.t.Errorf("router sent partition %d to shard %d, which does not own it", p.J, sh)
		}
	}
	return execRangeScan(l.ix, req)
}

// TestKNNWalkByteIdentity is the core property: the router's delegated
// walk reproduces the single-node query EXACTLY — same neighbors, same
// distances to the bit, same Stats — for every shard count, and every
// shard holding a true neighbor is in the contacted set (bound
// soundness).
func TestKNNWalkByteIdentity(t *testing.T) {
	objs := dataset.Gaussian(1500, 4, 8, 0.05, 100, 7)
	ix := buildIndex(t, objs)
	meta := metaOf(t, ix)
	points := map[int64]vector.Point{}
	for _, o := range objs {
		points[o.ID] = o.Point
	}

	for _, shards := range []int{1, 2, 3, 4, 7} {
		owner, cells := AssignCells(ix, shards)
		for trial := 0; trial <= 30; trial++ {
			q := dataset.Gaussian(1, 4, 8, 0.3, 100, int64(trial)+900)[0].Point
			k := 1 + trial%12
			if trial == 30 {
				k = 1 << 40 // a hostile k: every object, and no heap sized by k
			}
			ls := newLocalScan(t, ix, cells)
			got, gotSt, contacted, err := knnWalk(meta, owner, 1, q, k, ls.scan)
			if err != nil {
				t.Fatalf("shards=%d trial=%d: %v", shards, trial, err)
			}
			want, wantSt := ix.KNNWithStats(q, k)
			if gotSt != wantSt {
				t.Fatalf("shards=%d trial=%d: stats differ: got %+v want %+v", shards, trial, gotSt, wantSt)
			}
			if len(got) != len(want) || len(got) != min(k, len(objs)) {
				t.Fatalf("shards=%d trial=%d: got %d neighbors, want %d", shards, trial, len(got), min(k, len(objs)))
			}
			for i := range got {
				if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("shards=%d trial=%d: neighbor %d differs: got %+v want %+v",
						shards, trial, i, got[i], want[i])
				}
			}
			if contacted != len(ls.contacted) {
				t.Fatalf("shards=%d trial=%d: contacted count %d, recorder saw %d", shards, trial, contacted, len(ls.contacted))
			}
			// Bound soundness: the shard owning every true neighbor's cell
			// must have been contacted.
			for _, c := range want {
				cell, _ := meta.AssignQuery(points[c.ID], nil)
				if sh := owner[cell]; !ls.contacted[sh] {
					t.Fatalf("shards=%d trial=%d: neighbor %d lives on shard %d (cell %d), never contacted",
						shards, trial, c.ID, sh, cell)
				}
			}
		}
	}
}

// TestKNNWalkRunBatching checks the efficiency half of the routing
// design on clustered data: queries touch fewer shards than exist, and
// consecutive same-shard cells collapse into single RPCs.
func TestKNNWalkRunBatching(t *testing.T) {
	objs := dataset.Gaussian(2000, 4, 6, 0.03, 100, 11)
	ix := buildIndex(t, objs)
	meta := metaOf(t, ix)
	const shards = 4
	owner, cells := AssignCells(ix, shards)

	totalContacted, queries := 0, 0
	for trial := 0; trial < 40; trial++ {
		// Query near the data clusters, where pruning has teeth.
		q := dataset.Gaussian(1, 4, 6, 0.05, 100, int64(trial)+500)[0].Point
		ls := newLocalScan(t, ix, cells)
		_, _, contacted, err := knnWalk(meta, owner, 1, q, 10, ls.scan)
		if err != nil {
			t.Fatal(err)
		}
		if ls.rpcs < contacted {
			t.Fatalf("trial %d: %d RPCs for %d shards contacted", trial, ls.rpcs, contacted)
		}
		totalContacted += contacted
		queries++
	}
	avg := float64(totalContacted) / float64(queries)
	if avg >= shards {
		t.Fatalf("routing never pruned a shard: avg %.2f of %d shards contacted", avg, shards)
	}
	t.Logf("avg shards contacted: %.2f of %d", avg, shards)
}

// TestRangeWalkByteIdentity: the sharded range query returns the exact
// single-node objects and Stats.
func TestRangeWalkByteIdentity(t *testing.T) {
	objs := dataset.Gaussian(1200, 3, 5, 0.08, 100, 13)
	ix := buildIndex(t, objs)
	meta := metaOf(t, ix)

	for _, shards := range []int{1, 2, 4} {
		owner, cells := AssignCells(ix, shards)
		for trial := 0; trial < 20; trial++ {
			q := dataset.Gaussian(1, 3, 5, 0.2, 100, int64(trial)+300)[0].Point
			radius := 2.0 + float64(trial)
			ls := newLocalScan(t, ix, cells)
			got, gotSt, _, err := rangeWalk(meta, owner, 1, q, radius, ls.rangeScan)
			if err != nil {
				t.Fatalf("shards=%d trial=%d: %v", shards, trial, err)
			}
			want, wantSt := ix.RangeWithStats(q, radius)
			if gotSt != wantSt {
				t.Fatalf("shards=%d trial=%d: stats differ: got %+v want %+v", shards, trial, gotSt, wantSt)
			}
			if len(got) != len(want) {
				t.Fatalf("shards=%d trial=%d: got %d objects, want %d", shards, trial, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID {
					t.Fatalf("shards=%d trial=%d: object %d: got ID %d want %d", shards, trial, i, got[i].ID, want[i].ID)
				}
				for d := range got[i].Point {
					if math.Float64bits(got[i].Point[d]) != math.Float64bits(want[i].Point[d]) {
						t.Fatalf("shards=%d trial=%d: object %d coordinate %d differs", shards, trial, i, d)
					}
				}
			}
		}
	}
}
