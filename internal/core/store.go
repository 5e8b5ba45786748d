package core

import (
	"container/heap"
	"fmt"
	"math"
)

// Entry is a cached page as tracked by a Store.
type Entry struct {
	// ID is the page identifier.
	ID int
	// Version is the cached content version.
	Version int
	// Size is the page size in bytes.
	Size int64
	// Cost is the fetch cost c(p) at this proxy.
	Cost float64
	// Value is the replacement value under the owning policy; the Store
	// evicts ascending Value.
	Value float64
	// Refs is the in-cache access count a(p). Discarded on eviction
	// (In-Cache LFU semantics, §3.1).
	Refs int
	// Subs is the number of local subscriptions matching the page.
	Subs int
	// LastAccessSeq is the policy-local sequence number of the last
	// access (or insertion), used by DC-AP's placing algorithm.
	LastAccessSeq uint64

	index int // heap index, -1 when not in a store
}

// Store is a capacity-bounded page cache with ascending-value eviction.
// Ties are broken by page ID so behaviour is deterministic.
type Store struct {
	capacity int64
	used     int64
	byID     map[int]*Entry
	h        entryHeap

	// Scratch reused across calls so admission does not allocate.
	evicted  []*Entry
	frontier byValue
}

// NewStore returns an empty store with the given capacity in bytes.
func NewStore(capacity int64) (*Store, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("core: store capacity must be non-negative, got %d", capacity)
	}
	return &Store{capacity: capacity, byID: make(map[int]*Entry)}, nil
}

// Capacity returns the store capacity in bytes.
func (s *Store) Capacity() int64 { return s.capacity }

// Used returns the cached bytes.
func (s *Store) Used() int64 { return s.used }

// Free returns the available bytes.
func (s *Store) Free() int64 { return s.capacity - s.used }

// Len returns the number of cached pages.
func (s *Store) Len() int { return len(s.byID) }

// SetCapacity adjusts the capacity. It fails if the new capacity is below
// the bytes currently in use (callers evict first).
func (s *Store) SetCapacity(c int64) error {
	if c < s.used {
		return fmt.Errorf("core: capacity %d below used %d", c, s.used)
	}
	s.capacity = c
	return nil
}

// Get returns the cached entry for a page, if any.
func (s *Store) Get(id int) (*Entry, bool) {
	e, ok := s.byID[id]
	return e, ok
}

// Add inserts an entry. It fails if the page is already cached or there is
// not enough free space (evict first).
func (s *Store) Add(e *Entry) error {
	if _, dup := s.byID[e.ID]; dup {
		return fmt.Errorf("core: page %d already cached", e.ID)
	}
	if e.Size > s.Free() {
		return fmt.Errorf("core: page %d (%d bytes) exceeds free space %d", e.ID, e.Size, s.Free())
	}
	s.byID[e.ID] = e
	heap.Push(&s.h, e)
	s.used += e.Size
	return nil
}

// Remove evicts the entry for a page, if cached.
func (s *Store) Remove(id int) (*Entry, bool) {
	e, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	heap.Remove(&s.h, e.index)
	delete(s.byID, id)
	s.used -= e.Size
	return e, true
}

// Peek returns the entry with the smallest value without removing it.
func (s *Store) Peek() (*Entry, bool) {
	if s.h.Len() == 0 {
		return nil, false
	}
	return s.h[0], true
}

// PopMin evicts and returns the entry with the smallest value.
func (s *Store) PopMin() (*Entry, bool) {
	if s.h.Len() == 0 {
		return nil, false
	}
	e := heap.Pop(&s.h).(*Entry)
	delete(s.byID, e.ID)
	s.used -= e.Size
	return e, true
}

// Fix re-establishes heap order after e.Value changed.
func (s *Store) Fix(e *Entry) {
	heap.Fix(&s.h, e.index)
}

// BytesBelow returns the total size of entries with Value strictly less
// than v — the push-time candidate set of SUB (§3.2).
func (s *Store) BytesBelow(v float64) int64 {
	return sumBelow(s.h, entryValue, entrySize, v, math.MaxInt64)
}

// CanAdmit reports whether a page of the given size fits after evicting
// only entries with value strictly below v. It walks only the candidates
// it needs: none when the free space suffices, otherwise the entries
// below v until their bytes cover the shortfall.
func (s *Store) CanAdmit(size int64, v float64) bool {
	if size > s.capacity {
		return false
	}
	need := size - s.Free()
	return need <= 0 || sumBelow(s.h, entryValue, entrySize, v, need) >= need
}

// EvictFor evicts ascending-value entries until size bytes are free,
// never evicting an entry whose value is >= limit. It returns the evicted
// entries and whether enough space was freed. The returned slice is
// reused by the next EvictFor call. On failure nothing useful can be
// guaranteed to remain (callers should CanAdmit first when the eviction
// must be all-or-nothing).
func (s *Store) EvictFor(size int64, limit float64) ([]*Entry, bool) {
	clear(s.evicted)
	s.evicted = s.evicted[:0]
	for s.Free() < size {
		e, ok := s.Peek()
		if !ok || e.Value >= limit {
			return s.evicted, false
		}
		s.PopMin()
		s.evicted = append(s.evicted, e)
	}
	return s.evicted, true
}

// ascend calls fn for the cached entries in ascending (Value, ID) order
// until fn returns false; fn must not mutate the store. It walks the heap
// best-first, so stopping after k entries costs O(k log k) rather than a
// sort of the whole store.
func (s *Store) ascend(fn func(*Entry) bool) {
	if len(s.h) == 0 {
		return
	}
	s.frontier = append(s.frontier[:0], s.h[0])
	for len(s.frontier) > 0 {
		e := heap.Pop(&s.frontier).(*Entry)
		if !fn(e) {
			break
		}
		if l := 2*e.index + 1; l < len(s.h) {
			heap.Push(&s.frontier, s.h[l])
		}
		if r := 2*e.index + 2; r < len(s.h) {
			heap.Push(&s.frontier, s.h[r])
		}
	}
	clear(s.frontier)
	s.frontier = s.frontier[:0]
}

// Each calls fn for every cached entry until fn returns false. The
// iteration order is unspecified; fn must not mutate the store.
func (s *Store) Each(fn func(*Entry) bool) {
	for _, e := range s.byID {
		if !fn(e) {
			return
		}
	}
}

// entryLess orders entries by (Value, ID), the eviction order.
func entryLess(a, b *Entry) bool {
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.ID < b.ID
}

func entryValue(e *Entry) float64 { return e.Value }
func entrySize(e *Entry) int64    { return e.Size }

// sumBelow sums the sizes of the entries of a binary min-heap h (laid
// out as container/heap keeps it) whose value is strictly below v,
// stopping as soon as the sum reaches need. Heap order puts no entry
// below its parent, so a subtree whose root is not below v holds no
// candidate and is skipped whole: the walk visits the candidates and
// the roots of the subtrees it prunes, not the whole heap. It walks in
// preorder without a stack, climbing the implicit parent links.
func sumBelow[E any](h []E, value func(E) float64, size func(E) int64, v float64, need int64) int64 {
	var total int64
	i := 0
	for {
		if i < len(h) && value(h[i]) < v {
			total += size(h[i])
			if total >= need {
				return total
			}
			i = 2*i + 1 // into the left subtree
			continue
		}
		// Subtree i is done: go on to the right sibling of the nearest
		// left child on the way up; past the root the walk is over.
		for i > 0 && i%2 == 0 {
			i = (i - 1) / 2
		}
		if i == 0 {
			return total
		}
		i++
	}
}

// entryHeap is a min-heap on (Value, ID).
type entryHeap []*Entry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return entryLess(h[i], h[j]) }
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *entryHeap) Push(x interface{}) {
	e := x.(*Entry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	e.index = -1
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// byValue is a min-heap on (Value, ID) that, unlike entryHeap, leaves the
// entries' store indices alone: it is ascend's frontier.
type byValue []*Entry

func (h byValue) Len() int           { return len(h) }
func (h byValue) Less(i, j int) bool { return entryLess(h[i], h[j]) }
func (h byValue) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *byValue) Push(x interface{}) {
	*h = append(*h, x.(*Entry))
}
func (h *byValue) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
