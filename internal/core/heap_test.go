package core

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is container/heap's reference for the typed heaps: the same
// order, with positions written through setIdx on every swap.
type refHeap struct {
	items  []*Entry
	setIdx func(e *Entry, i int)
}

func (h *refHeap) Len() int           { return len(h.items) }
func (h *refHeap) Less(i, j int) bool { return refLess(h.items[i], h.items[j]) }
func (h *refHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.setIdx(h.items[i], i)
	h.setIdx(h.items[j], j)
}
func (h *refHeap) Push(x any) {
	h.setIdx(x.(*Entry), len(h.items))
	h.items = append(h.items, x.(*Entry))
}
func (h *refHeap) Pop() any {
	n := len(h.items) - 1
	e := h.items[n]
	h.setIdx(e, -1)
	h.items = h.items[:n]
	return e
}

// heapOp is one step of a random heap workload.
type heapOp int

const (
	opPush heapOp = iota
	opPop
	opRemove
	opFix
)

// randomOps draws a sequence that grows the heap, then churns it. Values
// come from a small set so that ties, broken by ID, are common.
func randomOps(r *rand.Rand, n int) []heapOp {
	ops := make([]heapOp, n)
	for i := range ops {
		if i < n/4 {
			ops[i] = opPush
		} else {
			ops[i] = heapOp(r.Intn(4))
		}
	}
	return ops
}

func randomValue(r *rand.Rand) float64 { return float64(r.Intn(12)) / 4 }

// refLess is the eviction order, (Value, ID), written out here so the
// reference does not share the code under test.
func refLess(a, b *Entry) bool {
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.ID < b.ID
}

// TestEntryHeapMatchesContainerHeap drives entryHeap and a container/heap
// reference through the same random push/pop/remove/fix sequence: after
// every step the two layouts must hold the same pages in the same slots,
// and every entry's index must name its slot.
func TestEntryHeapMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var h entryHeap
		ref := &refHeap{setIdx: func(e *Entry, i int) { e.index = i }}
		twin := map[*Entry]*Entry{} // typed entry → its reference copy
		nextID := 0
		for step, op := range randomOps(r, 1+r.Intn(120)) {
			if op != opPush && len(h) == 0 {
				op = opPush
			}
			switch op {
			case opPush:
				e := &Entry{ID: nextID, Value: randomValue(r)}
				nextID++
				c := *e
				twin[e] = &c
				h.push(e)
				heap.Push(ref, &c)
			case opPop:
				e := h.pop()
				c := heap.Pop(ref).(*Entry)
				if e.ID != c.ID || e.index != -1 {
					t.Fatalf("round %d step %d: pop got page %d (index %d), reference %d", round, step, e.ID, e.index, c.ID)
				}
			case opRemove:
				i := r.Intn(len(h))
				e := h.remove(i)
				c := heap.Remove(ref, i).(*Entry)
				if e.ID != c.ID || e.index != -1 {
					t.Fatalf("round %d step %d: remove(%d) got page %d, reference %d", round, step, i, e.ID, c.ID)
				}
			case opFix:
				e := h[r.Intn(len(h))]
				c := twin[e]
				e.Value = randomValue(r)
				c.Value = e.Value
				h.fix(e.index)
				heap.Fix(ref, c.index)
			}
			for i, e := range h {
				if e.ID != ref.items[i].ID || e.index != i {
					t.Fatalf("round %d step %d: slot %d holds page %d (index %d), reference page %d",
						round, step, i, e.ID, e.index, ref.items[i].ID)
				}
			}
			if len(h) != len(ref.items) {
				t.Fatalf("round %d step %d: %d entries, reference %d", round, step, len(h), len(ref.items))
			}
		}
	}
}

// TestEntryQueueMatchesContainerHeap checks ascend's frontier: pushes and
// pops leave container/heap's layout and never touch an entry's index.
func TestEntryQueueMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		var q entryQueue
		ref := &refHeap{setIdx: func(*Entry, int) {}}
		nextID := 0
		for step, op := range randomOps(r, 1+r.Intn(120)) {
			if op == opPush || len(q) == 0 {
				e := &Entry{ID: nextID, Value: randomValue(r), index: 7}
				nextID++
				q.push(e)
				heap.Push(ref, e)
			} else {
				e := q.pop()
				if c := heap.Pop(ref).(*Entry); e != c {
					t.Fatalf("round %d step %d: pop got page %d, reference %d", round, step, e.ID, c.ID)
				}
			}
			for i, e := range q {
				if e != ref.items[i] || e.index != 7 {
					t.Fatalf("round %d step %d: slot %d holds page %d (index %d), reference page %d",
						round, step, i, e.ID, e.index, ref.items[i].ID)
				}
			}
		}
	}
}
