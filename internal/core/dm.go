package core

// dm implements Dual-Methods (§3.3): the push-time module runs SUB and
// the access-time module runs GD* over the *same* cache space. Every page
// carries two values — its GD* value and its SUB value — and each module
// orders evictions only by its own value.
type dm struct {
	capacity int64
	used     int64
	beta     float64
	l        float64
	slots    []*dmEntry // by page ID; nil when not cached
	gdHeap   entryHeap  // &e.gd of each resident pair, by GD* value
	subHeap  entryHeap  // &e.sub of each resident pair, by SUB value
	spare    freeList[dmEntry]

	stats   OpStats
	evicted evictionLog
}

// dmEntry is a resident page as each module sees it: gd carries the GD*
// value, the version and the access count, sub the SUB value, which is
// computed from the push's subscription count and so keeps no count of
// its own. Both carry the page's ID, Size and Cost, so a page popped from
// one heap is found in the other through dm.slots.
type dmEntry struct {
	gd, sub Entry
}

var _ Strategy = (*dm)(nil)

// NewDM builds the Dual-Methods strategy.
func NewDM(params Params) (Strategy, error) {
	if err := params.validateBeta(); err != nil {
		return nil, err
	}
	return &dm{capacity: params.Capacity, beta: params.Beta}, nil
}

func (d *dm) Name() string    { return "DM" }
func (d *dm) Used() int64     { return d.used }
func (d *dm) Capacity() int64 { return d.capacity }
func (d *dm) Len() int        { return len(d.gdHeap) }

// get returns the resident pair for a page, if any.
func (d *dm) get(id int) (*dmEntry, bool) {
	if uint(id) >= uint(len(d.slots)) { // also rejects a negative id
		return nil, false
	}
	e := d.slots[id]
	return e, e != nil
}

func (d *dm) gdEval(e *Entry) float64 {
	return d.l + invPow(float64(e.Refs)*e.Cost/float64(e.Size), d.beta)
}

// Push runs the SUB placement module.
func (d *dm) Push(p PageMeta, version, subs int) bool {
	d.evicted.reset()
	if e, ok := d.get(p.ID); ok {
		if version > e.gd.Version {
			e.gd.Version = version
		}
		e.sub.Value = subValue(subs, e.sub.Cost, e.sub.Size)
		d.subHeap.fix(e.sub.index)
		return true
	}
	d.stats.PushOffers++
	if p.ID < 0 || p.Size > d.capacity {
		return false
	}
	v := subValue(subs, p.Cost, p.Size)
	if !d.subAdmits(p.Size, v) {
		return false
	}
	for d.free() < p.Size { // the gate leaves only victims below v
		d.evict(d.slots[d.subHeap[0].ID])
	}
	e := d.spare.get()
	*e = dmEntry{
		gd:  Entry{ID: p.ID, Version: version, Size: p.Size, Cost: p.Cost},
		sub: Entry{ID: p.ID, Size: p.Size, Cost: p.Cost, Value: v},
	}
	e.gd.Value = d.gdEval(&e.gd)
	d.add(e)
	d.stats.PushStores++
	return true
}

// subAdmits is SUB's admission gate: a page of the given size fits after
// evicting only entries whose SUB value is strictly below v.
func (d *dm) subAdmits(size int64, v float64) bool {
	need := size - d.free()
	return need <= 0 || d.subHeap.sumBelow(v, need) >= need
}

// Request runs the GD* caching module.
func (d *dm) Request(p PageMeta, version, subs int) (hit, stored bool) {
	d.evicted.reset()
	d.stats.Requests++
	if e, ok := d.get(p.ID); ok {
		fresh := e.gd.Version >= version
		if fresh {
			d.stats.Hits++
		} else {
			d.stats.StaleRefreshes++
		}
		if version > e.gd.Version {
			e.gd.Version = version
		}
		e.gd.Refs++
		e.gd.Value = d.gdEval(&e.gd)
		d.gdHeap.fix(e.gd.index)
		return fresh, true
	}
	if p.ID < 0 || p.Size > d.capacity {
		d.stats.AccessRejects++
		return false, false
	}
	// Classic GD* replacement: evict ascending GD* value until room.
	for d.free() < p.Size {
		min := d.gdHeap[0]
		d.l = min.Value
		d.evict(d.slots[min.ID])
	}
	e := d.spare.get()
	*e = dmEntry{
		gd:  Entry{ID: p.ID, Version: version, Size: p.Size, Cost: p.Cost, Refs: 1},
		sub: Entry{ID: p.ID, Size: p.Size, Cost: p.Cost, Value: subValue(subs, p.Cost, p.Size)},
	}
	e.gd.Value = d.gdEval(&e.gd)
	d.add(e)
	d.stats.AccessAdmits++
	return false, true
}

func (d *dm) free() int64 { return d.capacity - d.used }

// evict removes a replacement victim from both orderings, accounts it
// and recycles it.
func (d *dm) evict(e *dmEntry) {
	id, size := e.gd.ID, e.gd.Size
	d.gdHeap.remove(e.gd.index)
	d.subHeap.remove(e.sub.index)
	d.slots[id] = nil
	d.used -= size
	d.stats.Evictions++
	d.stats.EvictedBytes += size
	d.evicted.add(id)
	d.spare.put(e)
}

func (d *dm) add(e *dmEntry) {
	d.slots = growSlots(d.slots, e.gd.ID)
	d.slots[e.gd.ID] = e
	d.gdHeap.push(&e.gd)
	d.subHeap.push(&e.sub)
	d.used += e.gd.Size
}
