// Package nnheap provides the bounded candidate heaps used by every kNN
// computation in the repository: a k-bounded max-heap that retains the k
// smallest-distance candidates seen so far (the running KNN(r,S) of
// Algorithm 3), and a general min-heap used by best-first R-tree search and
// by Algorithm 1's bound computation.
package nnheap

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
)

// Candidate is a neighbor candidate: an opaque identifier plus its distance
// to the query object.
type Candidate struct {
	ID   int64
	Dist float64
}

// KHeap retains the k candidates with the smallest distances among all
// candidates pushed so far. The zero value is not usable; construct with
// NewKHeap.
//
// Internally it is a max-heap on distance so the current worst retained
// candidate — the pruning threshold θ of Algorithm 3 — is inspectable in
// O(1) via Top.
type KHeap struct {
	k     int
	items []Candidate
}

// NewKHeap returns a heap bounded to k candidates. k must be positive.
func NewKHeap(k int) *KHeap { return NewKHeapAmong(k, k) }

// NewKHeapAmong returns a heap bounded to k candidates drawn from n
// objects. It preallocates room for min(k, n) of them, so a k taken from
// a request costs no more memory than the objects it searches; for
// k ≤ n it is NewKHeap(k). k must be positive.
func NewKHeapAmong(k, n int) *KHeap {
	if k <= 0 {
		panic("nnheap: k must be positive")
	}
	return &KHeap{k: k, items: make([]Candidate, 0, max(min(k, n), 0))}
}

// K returns the bound the heap was constructed with.
func (h *KHeap) K() int { return h.k }

// Len returns the number of retained candidates (≤ k).
func (h *KHeap) Len() int { return len(h.items) }

// Full reports whether the heap holds k candidates.
func (h *KHeap) Full() bool { return len(h.items) == h.k }

// Top returns the largest retained distance. It panics on an empty heap.
func (h *KHeap) Top() Candidate {
	if len(h.items) == 0 {
		panic("nnheap: Top of empty KHeap")
	}
	return h.items[0]
}

// Threshold returns the current pruning distance: the k-th smallest
// distance seen so far once the heap is full, or +∞-like fallback `def`
// while it is not. Callers pass the paper's partition bound θ_i as def so
// pruning is correct before k candidates accumulate.
func (h *KHeap) Threshold(def float64) float64 {
	if h.Full() {
		return h.items[0].Dist
	}
	return def
}

// Push offers a candidate. It reports whether the candidate was retained
// (i.e. it was among the k best seen so far at the time of the call).
func (h *KHeap) Push(c Candidate) bool {
	if len(h.items) < h.k {
		h.items = append(h.items, c)
		h.up(len(h.items) - 1)
		return true
	}
	if c.Dist >= h.items[0].Dist {
		return false
	}
	h.items[0] = c
	h.down(0)
	return true
}

// Sorted returns the retained candidates ordered by ascending distance,
// ties broken by ascending ID for determinism. The heap is unchanged.
func (h *KHeap) Sorted() []Candidate {
	return h.AppendSorted(make([]Candidate, 0, len(h.items)))
}

// AppendSorted appends the retained candidates to dst in the Sorted
// order (ascending distance, ties by ascending ID) and returns the
// extended slice. Reducers pass a reused buffer (dst[:0]) so the per-r
// emit path of the block kernels allocates nothing here.
func (h *KHeap) AppendSorted(dst []Candidate) []Candidate {
	start := len(dst)
	dst = append(dst, h.items...)
	slices.SortFunc(dst[start:], Compare)
	return dst
}

// Compare orders candidates by ascending distance, ties by ascending
// ID: the result order of every join. A heap, like a range scan's
// result, holds distinct IDs, and NaN distances are rejected at every
// entry point, so the order is total and any sort under it yields one
// sequence.
func Compare(a, b Candidate) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// Reset empties the heap, retaining capacity, so reducers can reuse one
// allocation per joined object.
func (h *KHeap) Reset() { h.items = h.items[:0] }

// Items returns a copy of the retained candidates in the heap's INTERNAL
// array order (not sorted). Together with RestoreKHeap it transfers the
// exact heap state across a process boundary: when several retained
// candidates share the k-th-best distance, which of them a later Push
// evicts depends on the internal array order, so a reconstruction that
// re-pushed the candidates as a set could diverge from the original
// under distance ties. Round-tripping the array verbatim cannot.
func (h *KHeap) Items() []Candidate {
	return append([]Candidate(nil), h.items...)
}

// RestoreKHeap reconstructs the heap whose Items call produced items,
// byte-for-byte: same bound k, same internal array order. It rejects
// states no KHeap can reach (more than k candidates, or an array
// violating the max-heap invariant), which guards the cross-process
// callers against corrupted or hand-rolled wire data.
func RestoreKHeap(k int, items []Candidate) (*KHeap, error) {
	if k <= 0 {
		return nil, fmt.Errorf("nnheap: RestoreKHeap: k must be positive, got %d", k)
	}
	if len(items) > k {
		return nil, fmt.Errorf("nnheap: RestoreKHeap: %d candidates exceed k=%d", len(items), k)
	}
	for i := 1; i < len(items); i++ {
		if items[(i-1)/2].Dist < items[i].Dist {
			return nil, fmt.Errorf("nnheap: RestoreKHeap: max-heap invariant violated at index %d", i)
		}
	}
	// The array grows as candidates are pushed: a k read off the wire
	// must not size an allocation.
	return &KHeap{k: k, items: slices.Clone(items)}, nil
}

func (h *KHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Dist >= h.items[i].Dist {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *KHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.items[l].Dist > h.items[largest].Dist {
			largest = l
		}
		if r < n && h.items[r].Dist > h.items[largest].Dist {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// MinItem is an entry of MinHeap: an arbitrary payload ordered by Priority.
type MinItem struct {
	Priority float64
	Payload  any
}

// MinHeap is a standard min-heap on Priority, used for best-first R-tree
// traversal. The zero value is ready to use.
type MinHeap struct{ entries minEntries }

type minEntries []MinItem

func (e minEntries) Len() int           { return len(e) }
func (e minEntries) Less(i, j int) bool { return e[i].Priority < e[j].Priority }
func (e minEntries) Swap(i, j int)      { e[i], e[j] = e[j], e[i] }
func (e *minEntries) Push(x any)        { *e = append(*e, x.(MinItem)) }
func (e *minEntries) Pop() any          { old := *e; n := len(old); it := old[n-1]; *e = old[:n-1]; return it }

// Len returns the number of queued items.
func (h *MinHeap) Len() int { return h.entries.Len() }

// Push queues an item.
func (h *MinHeap) Push(it MinItem) { heap.Push(&h.entries, it) }

// Pop removes and returns the minimum-priority item. It panics when empty.
func (h *MinHeap) Pop() MinItem { return heap.Pop(&h.entries).(MinItem) }

// Peek returns the minimum-priority item without removing it.
func (h *MinHeap) Peek() MinItem {
	if h.entries.Len() == 0 {
		panic("nnheap: Peek of empty MinHeap")
	}
	return h.entries[0]
}
