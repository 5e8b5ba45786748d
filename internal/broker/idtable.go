package broker

import "slices"

// IDTable maps IDs to values on the notify path: a broker's
// subscription → delivery target and proxy → push sink, a client's
// server ID → client ID, a cluster member link's ID → edge target. It
// is a slice of entries sorted by ID. IDs are handed out in ascending
// order, so Set almost always appends; Delete leaves a tombstone and
// the slice is compacted once half of it is dead, so unsubscribe costs
// a binary search plus amortized O(1). A notification's run of IDs is
// looked up with an IDCursor, which gallops forward from its previous
// hit: for an ascending run that is O(run · log gap) with no hashing,
// and any other order — unknown, duplicate or descending IDs — is
// still looked up correctly.
//
// An IDTable is not safe for concurrent use; its owner's lock guards
// it. The zero value is an empty table.
type IDTable[V any] struct {
	ents []idEntry[V]
	dead int // tombstones in ents
}

type idEntry[V any] struct {
	id   int64
	live bool
	v    V
}

// Len returns the number of live entries.
func (t *IDTable[V]) Len() int { return len(t.ents) - t.dead }

// search returns the index of the first entry with an ID ≥ id and
// whether that entry has exactly id.
func (t *IDTable[V]) search(id int64) (int, bool) {
	i := lowerBound(t.ents, 0, len(t.ents), id)
	return i, i < len(t.ents) && t.ents[i].id == id
}

// lowerBound returns the first index in [lo, hi) whose entry has an ID
// ≥ id, or hi if there is none. A plain loop: a comparison callback
// through slices.BinarySearchFunc costs more than the search itself on
// these small tables.
func lowerBound[V any](ents []idEntry[V], lo, hi int, id int64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ents[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Set maps id to v, replacing any previous value.
func (t *IDTable[V]) Set(id int64, v V) {
	if n := len(t.ents); n == 0 || t.ents[n-1].id < id {
		t.ents = append(t.ents, idEntry[V]{id: id, live: true, v: v})
		return
	}
	i, found := t.search(id)
	if !found {
		t.ents = slices.Insert(t.ents, i, idEntry[V]{id: id, live: true, v: v})
		return
	}
	e := &t.ents[i]
	if !e.live {
		e.live = true
		t.dead--
	}
	e.v = v
}

// Get returns the value mapped to id.
func (t *IDTable[V]) Get(id int64) (V, bool) {
	if i, found := t.search(id); found && t.ents[i].live {
		return t.ents[i].v, true
	}
	var zero V
	return zero, false
}

// slot returns the index of id's entry in t.ents and whether it is
// live, for per-entry scratch a caller keeps in step with the table.
// The index is valid until the table is next modified.
func (t *IDTable[V]) slot(id int64) (int, bool) {
	i, found := t.search(id)
	return i, found && t.ents[i].live
}

// Delete removes id's mapping and reports whether there was one.
func (t *IDTable[V]) Delete(id int64) bool {
	i, found := t.search(id)
	if !found || !t.ents[i].live {
		return false
	}
	var zero V
	t.ents[i].live, t.ents[i].v = false, zero // drop the value's references now
	t.dead++
	if 2*t.dead >= len(t.ents) {
		t.compact()
	}
	return true
}

// compact drops the tombstones.
func (t *IDTable[V]) compact() {
	live := t.ents[:0]
	for _, e := range t.ents {
		if e.live {
			live = append(live, e)
		}
	}
	clear(t.ents[len(live):])
	t.ents, t.dead = live, 0
}

// Cursor returns a cursor for looking up one run of IDs. It is valid
// until the table is next modified.
func (t *IDTable[V]) Cursor() IDCursor[V] { return IDCursor[V]{ents: t.ents} }

// IDCursor looks up a run of IDs in an IDTable, each search starting
// where the previous one ended.
type IDCursor[V any] struct {
	ents []idEntry[V]
	pos  int // every entry before pos has an ID below the last one looked up
}

// Find returns the value mapped to id. It gallops forward from the
// previous lookup; an ID below that one restarts the search from the
// front of the table.
func (c *IDCursor[V]) Find(id int64) (V, bool) {
	ents := c.ents
	lo := c.pos
	if lo > 0 && ents[lo-1].id >= id {
		lo = 0
	}
	// Gallop: probe lo, lo+1, lo+3, lo+7, ... until an ID ≥ id, then
	// binary-search the last stride.
	if lo < len(ents) && ents[lo].id < id {
		prev, step := lo, 1
		for prev+step < len(ents) && ents[prev+step].id < id {
			prev += step
			step <<= 1
		}
		lo = lowerBound(ents, prev+1, min(prev+step, len(ents)), id)
	}
	c.pos = lo
	if lo < len(ents) && ents[lo].id == id && ents[lo].live {
		return ents[lo].v, true
	}
	var zero V
	return zero, false
}
