package nnheap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKHeapBasic(t *testing.T) {
	h := NewKHeap(3)
	if h.K() != 3 || h.Len() != 0 || h.Full() {
		t.Fatal("fresh heap state wrong")
	}
	for i, d := range []float64{5, 1, 4, 2, 3} {
		h.Push(Candidate{ID: int64(i), Dist: d})
	}
	if !h.Full() || h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	got := h.Sorted()
	wantDists := []float64{1, 2, 3}
	for i, c := range got {
		if c.Dist != wantDists[i] {
			t.Fatalf("Sorted()[%d].Dist = %v, want %v", i, c.Dist, wantDists[i])
		}
	}
	if h.Top().Dist != 3 {
		t.Fatalf("Top().Dist = %v, want 3", h.Top().Dist)
	}
}

func TestKHeapPushReportsRetention(t *testing.T) {
	h := NewKHeap(2)
	if !h.Push(Candidate{1, 10}) || !h.Push(Candidate{2, 20}) {
		t.Fatal("pushes into non-full heap must be retained")
	}
	if h.Push(Candidate{3, 30}) {
		t.Fatal("worse-than-worst candidate must be rejected")
	}
	if !h.Push(Candidate{4, 5}) {
		t.Fatal("better candidate must be retained")
	}
	if h.Top().Dist != 10 {
		t.Fatalf("Top().Dist = %v, want 10", h.Top().Dist)
	}
}

func TestKHeapEqualDistanceRejected(t *testing.T) {
	// A candidate with distance equal to the current worst must not evict
	// it: Definition 1 permits any tie-breaking, and rejecting keeps the
	// heap stable and avoids needless churn.
	h := NewKHeap(1)
	h.Push(Candidate{1, 7})
	if h.Push(Candidate{2, 7}) {
		t.Fatal("equal-distance candidate should be rejected")
	}
	if h.Top().ID != 1 {
		t.Fatal("original candidate should survive")
	}
}

func TestKHeapThreshold(t *testing.T) {
	h := NewKHeap(2)
	if got := h.Threshold(99); got != 99 {
		t.Fatalf("Threshold on empty = %v, want default", got)
	}
	h.Push(Candidate{1, 3})
	if got := h.Threshold(99); got != 99 {
		t.Fatalf("Threshold on non-full = %v, want default", got)
	}
	h.Push(Candidate{2, 8})
	if got := h.Threshold(99); got != 8 {
		t.Fatalf("Threshold on full = %v, want 8", got)
	}
}

func TestKHeapReset(t *testing.T) {
	h := NewKHeap(4)
	for i := 0; i < 10; i++ {
		h.Push(Candidate{int64(i), float64(i)})
	}
	h.Reset()
	if h.Len() != 0 || h.Full() {
		t.Fatal("Reset did not empty heap")
	}
	h.Push(Candidate{1, 1})
	if h.Len() != 1 {
		t.Fatal("heap unusable after Reset")
	}
}

// A k far above the objects searched is kept as the bound but sizes
// nothing: the heap holds every object and never fills.
func TestKHeapAmongHugeK(t *testing.T) {
	h := NewKHeapAmong(1<<40, 3)
	if cap(h.items) != 3 || h.K() != 1<<40 {
		t.Fatalf("cap %d, K %d; want 3 and 1<<40", cap(h.items), h.K())
	}
	for i := 0; i < 3; i++ {
		h.Push(Candidate{ID: int64(i), Dist: float64(3 - i)})
	}
	if h.Len() != 3 || h.Full() || h.Threshold(-1) != -1 {
		t.Fatalf("len %d full %v: a heap of 3 with k = 2⁴⁰ must hold all and stay unfilled", h.Len(), h.Full())
	}
	if cap(NewKHeapAmong(5, 100).items) != 5 {
		t.Fatal("k ≤ n must preallocate k, as NewKHeap does")
	}
}

func TestKHeapPanics(t *testing.T) {
	mustPanic(t, func() { NewKHeap(0) })
	mustPanic(t, func() { NewKHeapAmong(0, 5) })
	mustPanic(t, func() { NewKHeap(2).Top() })
	mustPanic(t, func() { (&MinHeap{}).Peek() })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestKHeapSortedTieBreaksByID(t *testing.T) {
	h := NewKHeap(3)
	h.Push(Candidate{9, 1})
	h.Push(Candidate{3, 1})
	h.Push(Candidate{5, 1})
	got := h.Sorted()
	if got[0].ID != 3 || got[1].ID != 5 || got[2].ID != 9 {
		t.Fatalf("tie order = %v", got)
	}
}

// Property: for any input sequence and any k, the heap retains exactly the
// k smallest distances (as a multiset).
func TestKHeapKeepsKSmallestQuick(t *testing.T) {
	f := func(dists []float64, kRaw uint8) bool {
		if len(dists) == 0 {
			return true
		}
		k := int(kRaw)%len(dists) + 1
		h := NewKHeap(k)
		for i, d := range dists {
			if d < 0 {
				d = -d
			}
			h.Push(Candidate{ID: int64(i), Dist: d})
		}
		want := make([]float64, 0, len(dists))
		for _, d := range dists {
			if d < 0 {
				d = -d
			}
			want = append(want, d)
		}
		sort.Float64s(want)
		want = want[:min(k, len(want))]
		got := h.Sorted()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Dist != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: once full, Threshold is monotonically non-increasing as more
// candidates are pushed — the θ refinement loop in Algorithm 3 (line 24)
// depends on this.
func TestKHeapThresholdMonotoneQuick(t *testing.T) {
	f := func(dists []float64) bool {
		h := NewKHeap(3)
		prev := -1.0
		for i, d := range dists {
			if d < 0 {
				d = -d
			}
			h.Push(Candidate{int64(i), d})
			if h.Full() {
				cur := h.Threshold(0)
				if prev >= 0 && cur > prev {
					return false
				}
				prev = cur
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestMinHeapOrdering(t *testing.T) {
	h := &MinHeap{}
	vals := []float64{5, 3, 8, 1, 9, 2}
	for _, v := range vals {
		h.Push(MinItem{Priority: v, Payload: v})
	}
	if h.Peek().Priority != 1 {
		t.Fatalf("Peek = %v, want 1", h.Peek().Priority)
	}
	sort.Float64s(vals)
	for _, want := range vals {
		if got := h.Pop(); got.Priority != want {
			t.Fatalf("Pop = %v, want %v", got.Priority, want)
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not drained")
	}
}

func BenchmarkKHeapPush(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	dists := make([]float64, 4096)
	for i := range dists {
		dists[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewKHeap(10)
		for j, d := range dists {
			h.Push(Candidate{int64(j), d})
		}
	}
}
