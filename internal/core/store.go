package core

import (
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
//
// Pages are found through a slot table indexed by page ID (PageMeta.ID
// is a dense non-negative index), so a lookup is one bounds check and
// one load, and the eviction order is a binary min-heap whose entries
// carry their own position.
type Store struct {
	capacity int64
	used     int64
	slots    []*Entry // by page ID; nil when not cached
	h        entryHeap

	// Scratch reused across calls so admission does not allocate.
	evicted  []*Entry
	frontier entryQueue
}

// NewStore returns an empty store with the given capacity in bytes.
func NewStore(capacity int64) (*Store, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("core: store capacity must be non-negative, got %d", capacity)
	}
	return &Store{capacity: capacity}, nil
}

// Capacity returns the store capacity in bytes.
func (s *Store) Capacity() int64 { return s.capacity }

// Used returns the cached bytes.
func (s *Store) Used() int64 { return s.used }

// Free returns the available bytes.
func (s *Store) Free() int64 { return s.capacity - s.used }

// Len returns the number of cached pages.
func (s *Store) Len() int { return len(s.h) }

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
	if uint(id) >= uint(len(s.slots)) { // also rejects a negative id
		return nil, false
	}
	e := s.slots[id]
	return e, e != nil
}

// Add inserts an entry. It fails if the page ID is negative, the page is
// already cached or there is not enough free space (evict first).
func (s *Store) Add(e *Entry) error {
	if e.ID < 0 {
		return fmt.Errorf("core: page ID %d is negative", e.ID)
	}
	if _, dup := s.Get(e.ID); dup {
		return fmt.Errorf("core: page %d already cached", e.ID)
	}
	if e.Size > s.Free() {
		return fmt.Errorf("core: page %d (%d bytes) exceeds free space %d", e.ID, e.Size, s.Free())
	}
	s.slots = growSlots(s.slots, e.ID)
	s.slots[e.ID] = e
	s.h.push(e)
	s.used += e.Size
	return nil
}

// Remove evicts the entry for a page, if cached.
func (s *Store) Remove(id int) (*Entry, bool) {
	e, ok := s.Get(id)
	if !ok {
		return nil, false
	}
	s.h.remove(e.index)
	s.slots[id] = nil
	s.used -= e.Size
	return e, true
}

// Peek returns the entry with the smallest value without removing it.
func (s *Store) Peek() (*Entry, bool) {
	if len(s.h) == 0 {
		return nil, false
	}
	return s.h[0], true
}

// PopMin evicts and returns the entry with the smallest value.
func (s *Store) PopMin() (*Entry, bool) {
	if len(s.h) == 0 {
		return nil, false
	}
	e := s.h.pop()
	s.slots[e.ID] = nil
	s.used -= e.Size
	return e, true
}

// Fix re-establishes heap order after e.Value changed.
func (s *Store) Fix(e *Entry) {
	s.h.fix(e.index)
}

// BytesBelow returns the total size of entries with Value strictly less
// than v — the push-time candidate set of SUB (§3.2).
func (s *Store) BytesBelow(v float64) int64 {
	return s.h.sumBelow(v, math.MaxInt64)
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
	return need <= 0 || s.h.sumBelow(v, need) >= need
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
		e := s.frontier.pop()
		if !fn(e) {
			break
		}
		if l := 2*e.index + 1; l < len(s.h) {
			s.frontier.push(s.h[l])
		}
		if r := 2*e.index + 2; r < len(s.h) {
			s.frontier.push(s.h[r])
		}
	}
	clear(s.frontier)
	s.frontier = s.frontier[:0]
}

// Each calls fn for every cached entry until fn returns false. The
// iteration order is unspecified; fn must not mutate the store.
func (s *Store) Each(fn func(*Entry) bool) {
	for _, e := range s.h {
		if !fn(e) {
			return
		}
	}
}

// freeList recycles a strategy's evicted entries: eviction puts them
// back and admission takes from it, so a cache in steady state admits
// without allocating. An entry on the list belongs to no store; the only
// other references to it are the eviction scratch slices (Store.EvictFor's
// result, DC-AP's reclaim set), which their callers read before the next
// admission reuses the entry.
type freeList[E any] []*E

// get returns a recycled entry, or a new one when the list is empty. The
// caller overwrites every field.
func (f *freeList[E]) get() *E {
	n := len(*f) - 1
	if n < 0 {
		return new(E)
	}
	e := (*f)[n]
	(*f)[n] = nil
	*f = (*f)[:n]
	return e
}

// put recycles entries that no store holds any more.
func (f *freeList[E]) put(es ...*E) {
	*f = append(*f, es...)
}

// growSlots returns slots long enough to index id, extending it (with
// nil slots, to its whole new capacity) only when it is too short.
func growSlots[E any](slots []*E, id int) []*E {
	if id < len(slots) {
		return slots
	}
	slots = append(slots, make([]*E, id+1-len(slots))...)
	return slots[:cap(slots)]
}

// entryLess orders entries by (Value, ID), the eviction order.
func entryLess(a, b *Entry) bool {
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.ID < b.ID
}

// nextSubtree returns where a preorder walk of a binary heap goes once
// subtree i is done: the right sibling of the nearest left child on the
// path up from i, or 0 when the walk is over.
func nextSubtree(i int) int {
	for i > 0 && i%2 == 0 {
		i = (i - 1) / 2
	}
	if i == 0 {
		return 0
	}
	return i + 1
}

// entryHeap is a binary min-heap on (Value, ID) that keeps each entry's
// position in Entry.index. Its sift loops are container/heap's, written
// out for one element type so comparisons inline: the same operations
// leave the same layout.
type entryHeap []*Entry

// sumBelow sums the sizes of the entries whose value is strictly below
// v, stopping as soon as the sum reaches need. Heap order puts no entry
// below its parent, so a subtree whose root is not below v holds no
// candidate and is skipped whole: the walk visits the candidates and the
// roots of the subtrees it prunes, not the whole heap. It walks in
// preorder without a stack, climbing the implicit parent links.
func (h entryHeap) sumBelow(v float64, need int64) int64 {
	var total int64
	for i := 0; ; {
		if i < len(h) && h[i].Value < v {
			total += h[i].Size
			if total >= need {
				return total
			}
			i = 2*i + 1 // into the left subtree
			continue
		}
		if i = nextSubtree(i); i == 0 {
			return total
		}
	}
}

func (h *entryHeap) push(e *Entry) {
	*h = append(*h, e)
	h.up(len(*h)-1, e)
}

// pop removes and returns the minimum.
func (h *entryHeap) pop() *Entry {
	return h.remove(0)
}

// remove removes and returns the entry at position i.
func (h *entryHeap) remove(i int) *Entry {
	old := *h
	n := len(old) - 1
	e, last := old[i], old[n]
	old[n] = nil
	*h = old[:n]
	if i != n {
		if !h.down(i, last) {
			h.up(i, last)
		}
	}
	e.index = -1
	return e
}

// fix restores heap order after the value of the entry at i changed.
func (h entryHeap) fix(i int) {
	if e := h[i]; !h.down(i, e) {
		h.up(i, e)
	}
}

// up moves e, to be placed at position j, towards the root past every
// parent it orders before, and places it.
func (h entryHeap) up(j int, e *Entry) {
	for j > 0 {
		i := (j - 1) / 2
		p := h[i]
		if !entryLess(e, p) {
			break
		}
		h[j], p.index = p, j
		j = i
	}
	h[j], e.index = e, j
}

// down moves e, to be placed at position i0, towards the leaves past
// every smaller child, places it, and reports whether it moved.
func (h entryHeap) down(i0 int, e *Entry) bool {
	i, n := i0, len(h)
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if j2 := j + 1; j2 < n && entryLess(h[j2], h[j]) {
			j = j2
		}
		c := h[j]
		if !entryLess(c, e) {
			break
		}
		h[i], c.index = c, i
		i = j
	}
	h[i], e.index = e, i
	return i > i0
}

// entryQueue is a binary min-heap on (Value, ID) that, unlike entryHeap,
// leaves the entries' store positions alone: it is ascend's frontier.
type entryQueue []*Entry

func (q *entryQueue) push(e *Entry) {
	h := append(*q, e)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !entryLess(e, h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = e
	*q = h
}

func (q *entryQueue) pop() *Entry {
	h := *q
	n := len(h) - 1
	min, e := h[0], h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if n == 0 {
		return min
	}
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && entryLess(h[j2], h[j]) {
			j = j2
		}
		if !entryLess(h[j], e) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = e
	return min
}
