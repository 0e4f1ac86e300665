package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"knnjoin/internal/dataset"
	"knnjoin/internal/nnheap"
	"knnjoin/internal/vector"
	"knnjoin/internal/vindex"
)

// TestHeapWireRoundTrip: the wire form preserves the heap's internal
// array VERBATIM — the property byte-identity under distance ties
// depends on, because KHeap eviction order follows the array layout.
func TestHeapWireRoundTrip(t *testing.T) {
	h := nnheap.NewKHeap(4)
	for _, c := range []nnheap.Candidate{
		{ID: 1, Dist: 9}, {ID: 2, Dist: 3}, {ID: 3, Dist: 9}, {ID: 4, Dist: 5}, {ID: 5, Dist: 4},
	} {
		h.Push(c)
	}
	before := h.Items()
	restored, err := wireHeap(4, heapWire(h))
	if err != nil {
		t.Fatal(err)
	}
	after := restored.Items()
	if len(before) != len(after) {
		t.Fatalf("length changed: %d → %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("slot %d changed: %+v → %+v", i, before[i], after[i])
		}
	}
}

func TestWireHeapRejectsCorruptState(t *testing.T) {
	if _, err := wireHeap(0, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := wireHeap(1, []WireCand{{ID: 1, Dist: 0}, {ID: 2, Dist: 0}}); err == nil {
		t.Error("overfull heap accepted")
	}
	// Max-heap invariant violated: child larger than root.
	bad := []WireCand{
		{ID: 1, Dist: math.Float64bits(1)},
		{ID: 2, Dist: math.Float64bits(5)},
	}
	if _, err := wireHeap(4, bad); err == nil {
		t.Error("invariant-violating heap accepted")
	}
}

func TestPointBitsRoundTrip(t *testing.T) {
	p := vector.Point{1.5, -0.0, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	got := bitsPoint(pointBits(p))
	for i := range p {
		if math.Float64bits(got[i]) != math.Float64bits(p[i]) {
			t.Fatalf("coordinate %d: %x → %x", i, math.Float64bits(p[i]), math.Float64bits(got[i]))
		}
	}
}

// TestExecRejectsRaggedQueries: a scan or range-scan request whose query
// point does not have the index's dimensionality is an error (HTTP 400
// at the shard's socket), not a panic in the distance kernels.
func TestExecRejectsRaggedQueries(t *testing.T) {
	ix := buildIndex(t, dataset.Uniform(200, 3, 100, 1))
	for _, q := range [][]uint64{nil, pointBits(vector.Point{1}), pointBits(vector.Point{1, 2, 3, 4})} {
		scan := &ScanRequest{K: 3, Q: q, Theta: math.Float64bits(math.Inf(1)), Parts: []ScanPart{{J: 0}}}
		if _, err := execScan(ix, scan); err == nil || !strings.Contains(err.Error(), "coordinates") {
			t.Errorf("scan with %d coordinates: err = %v, want a dimension error", len(q), err)
		}
		rng := &RangeScanRequest{Q: q, Radius: math.Float64bits(10), Parts: []RangePart{{J: 0, Hi: math.Float64bits(100)}}}
		if _, err := execRangeScan(ix, rng); err == nil || !strings.Contains(err.Error(), "coordinates") {
			t.Errorf("range scan with %d coordinates: err = %v, want a dimension error", len(q), err)
		}
	}
}

// FuzzExecScan: whatever JSON reaches a shard's socket, decoded as the
// /shard/scan and /shard/range handlers decode it, execScan and
// execRangeScan must return an error or a response, and never panic.
func FuzzExecScan(f *testing.F) {
	ix, err := vindex.Build(dataset.Uniform(200, 3, 100, 1), vindex.Options{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	q := pointBits(vector.Point{50, 50, 50})
	for _, req := range []any{
		ScanRequest{K: 3, Q: q, QDist: math.Float64bits(1), Theta: math.Float64bits(math.Inf(1)),
			Parts: []ScanPart{{J: 0, Gap: math.Float64bits(1)}, {J: 1, Gap: math.Float64bits(2)}}},
		ScanRequest{K: 3, Q: q[:1], Theta: math.Float64bits(math.Inf(1)), Parts: []ScanPart{{J: 0}}},
		ScanRequest{K: 1 << 40, Q: q, Theta: math.Float64bits(math.Inf(1)), Parts: []ScanPart{{J: 0}}},
		RangeScanRequest{Q: q, Radius: math.Float64bits(20), Parts: []RangePart{{J: 0, Hi: math.Float64bits(100)}}},
		RangeScanRequest{Q: q[:1], Radius: math.Float64bits(20), Parts: []RangePart{{J: 0}}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var scan ScanRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&scan) == nil {
			if resp, err := execScan(ix, &scan); (resp == nil) == (err == nil) {
				t.Fatalf("execScan returned %v and %v", resp, err)
			}
		}
		var rng RangeScanRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&rng) == nil {
			if resp, err := execRangeScan(ix, &rng); (resp == nil) == (err == nil) {
				t.Fatalf("execRangeScan returned %v and %v", resp, err)
			}
		}
	})
}
