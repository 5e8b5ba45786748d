// Package idtable holds Table, the sorted ID → value table behind the
// subscription registry and the notify path.
package idtable

import "slices"

// Table maps IDs to values: the match engine's subscription →
// aggregate, a broker's proxy → push sink, a client's server ID →
// client ID, a cluster member link's ID → edge target. It is a slice of
// entries sorted by ID. IDs are handed out in ascending order, so Set
// almost always appends; Delete leaves a tombstone and the slice is
// compacted once half of it is dead, so unsubscribe costs a binary
// search plus amortized O(1). A notification's run of IDs is looked up
// with a Cursor, which gallops forward from its previous hit: for an
// ascending run that is O(run · log gap) with no hashing, and any other
// order — unknown, duplicate or descending IDs — is still looked up
// correctly.
//
// A Table is not safe for concurrent use; its owner's lock guards it.
// The zero value is an empty table.
type Table[V any] struct {
	ents []idEntry[V]
	dead int // tombstones in ents
}

type idEntry[V any] struct {
	id   int64
	live bool
	v    V
}

// Len returns the number of live entries.
func (t *Table[V]) Len() int { return len(t.ents) - t.dead }

// search returns the index of the first entry with an ID ≥ id and
// whether that entry has exactly id.
func (t *Table[V]) search(id int64) (int, bool) {
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
func (t *Table[V]) Set(id int64, v V) {
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
func (t *Table[V]) Get(id int64) (V, bool) {
	if i, found := t.search(id); found && t.ents[i].live {
		return t.ents[i].v, true
	}
	var zero V
	return zero, false
}

// Slot returns the position of id's entry and whether it is live, for
// per-entry scratch a caller keeps in step with the table. Positions run
// from 0 to Slots()-1 in ascending ID order, dead entries included, and
// are valid until the table is next modified.
func (t *Table[V]) Slot(id int64) (int, bool) {
	i, found := t.search(id)
	return i, found && t.ents[i].live
}

// Slots returns the number of positions, live or dead.
func (t *Table[V]) Slots() int { return len(t.ents) }

// At returns the ID and value at position i, and whether the entry is
// live.
func (t *Table[V]) At(i int) (int64, V, bool) {
	e := &t.ents[i]
	return e.id, e.v, e.live
}

// Delete removes id's mapping and returns the value it mapped to, if
// there was one.
func (t *Table[V]) Delete(id int64) (V, bool) {
	var zero V
	i, found := t.search(id)
	if !found || !t.ents[i].live {
		return zero, false
	}
	v := t.ents[i].v
	t.ents[i].live, t.ents[i].v = false, zero // drop the value's references now
	t.dead++
	if 2*t.dead >= len(t.ents) {
		t.compact()
	}
	return v, true
}

// compact drops the tombstones.
func (t *Table[V]) compact() {
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
func (t *Table[V]) Cursor() Cursor[V] { return Cursor[V]{ents: t.ents} }

// Cursor looks up a run of IDs in a Table, each search starting
// where the previous one ended.
type Cursor[V any] struct {
	ents []idEntry[V]
	pos  int // every entry before pos has an ID below the last one looked up
}

// Find returns the value mapped to id. It gallops forward from the
// previous lookup; an ID below that one restarts the search from the
// front of the table.
func (c *Cursor[V]) Find(id int64) (V, bool) {
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
