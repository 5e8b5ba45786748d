package core

import (
	"container/heap"
	"time"
)

// dm implements Dual-Methods (§3.3): the push-time module runs SUB and
// the access-time module runs GD* over the *same* cache space. Every page
// carries two values — its GD* value and its SUB value — and each module
// orders evictions only by its own value.
type dm struct {
	capacity int64
	used     int64
	beta     float64
	l        float64
	seq      uint64
	byID     map[int]*dmEntry
	gdHeap   dmHeap // ordered by gdValue
	subHeap  dmHeap // ordered by subValue

	stats   OpStats
	metrics *StrategyMetrics
	flushed OpStats
}

type dmEntry struct {
	Entry
	gdValue  float64
	subValue float64
	gdIdx    int
	subIdx   int
}

var _ Strategy = (*dm)(nil)

// NewDM builds the Dual-Methods strategy.
func NewDM(params Params) (Strategy, error) {
	if err := params.validateBeta(); err != nil {
		return nil, err
	}
	d := &dm{
		capacity: params.Capacity,
		beta:     params.Beta,
		byID:     make(map[int]*dmEntry),
		metrics:  params.Metrics,
	}
	d.gdHeap = dmHeap{value: func(e *dmEntry) float64 { return e.gdValue },
		index: func(e *dmEntry) *int { return &e.gdIdx }}
	d.subHeap = dmHeap{value: func(e *dmEntry) float64 { return e.subValue },
		index: func(e *dmEntry) *int { return &e.subIdx }}
	return d, nil
}

func (d *dm) Name() string    { return "DM" }
func (d *dm) Used() int64     { return d.used }
func (d *dm) Capacity() int64 { return d.capacity }
func (d *dm) Len() int        { return len(d.byID) }

func (d *dm) gdEval(e *dmEntry) float64 {
	return d.l + invPow(float64(e.Refs)*e.Cost/float64(e.Size), d.beta)
}

func (d *dm) subEval(e *dmEntry) float64 {
	return subValue(e.Subs, e.Cost, e.Size)
}

func dmSize(e *dmEntry) int64 { return e.Size }

// Push runs the SUB placement module.
func (d *dm) Push(p PageMeta, version, subs int) bool {
	m := d.metrics
	if m == nil || !sampleOp(d.seq) {
		return d.push(p, version, subs)
	}
	t0 := time.Now()
	stored := d.push(p, version, subs)
	m.pushDone(t0, &d.flushed, &d.stats)
	return stored
}

func (d *dm) push(p PageMeta, version, subs int) bool {
	d.seq++
	if e, ok := d.byID[p.ID]; ok {
		if version > e.Version {
			e.Version = version
		}
		e.Subs = subs
		e.subValue = d.subEval(e)
		heap.Fix(&d.subHeap, e.subIdx)
		return true
	}
	d.stats.PushOffers++
	if p.Size > d.capacity {
		return false
	}
	v := subValue(subs, p.Cost, p.Size)
	if !d.subAdmits(p.Size, v) {
		return false
	}
	for d.free() < p.Size { // the gate leaves only victims below v
		d.evict(d.subHeap.items[0])
	}
	e := &dmEntry{Entry: Entry{
		ID: p.ID, Version: version, Size: p.Size, Cost: p.Cost, Subs: subs,
		LastAccessSeq: d.seq,
	}, subValue: v}
	e.gdValue = d.gdEval(e)
	d.add(e)
	d.stats.PushStores++
	return true
}

// subAdmits is SUB's admission gate: a page of the given size fits after
// evicting only entries whose subValue is strictly below v.
func (d *dm) subAdmits(size int64, v float64) bool {
	need := size - d.free()
	return need <= 0 || sumBelow(d.subHeap.items, d.subHeap.value, dmSize, v, need) >= need
}

// Request runs the GD* caching module.
func (d *dm) Request(p PageMeta, version, subs int) (hit, stored bool) {
	m := d.metrics
	if m == nil || !sampleOp(d.seq) {
		return d.request(p, version, subs)
	}
	t0 := time.Now()
	hit, stored = d.request(p, version, subs)
	m.requestDone(t0, &d.flushed, &d.stats)
	return hit, stored
}

func (d *dm) request(p PageMeta, version, subs int) (hit, stored bool) {
	d.seq++
	d.stats.Requests++
	if e, ok := d.byID[p.ID]; ok {
		fresh := e.Version >= version
		if fresh {
			d.stats.Hits++
		} else {
			d.stats.StaleRefreshes++
		}
		if version > e.Version {
			e.Version = version
		}
		e.Refs++
		e.Subs = subs
		e.LastAccessSeq = d.seq
		e.gdValue = d.gdEval(e)
		heap.Fix(&d.gdHeap, e.gdIdx)
		return fresh, true
	}
	if p.Size > d.capacity {
		d.stats.AccessRejects++
		return false, false
	}
	// Classic GD* replacement: evict ascending gdValue until room.
	for d.free() < p.Size {
		min := d.gdHeap.items[0]
		d.l = min.gdValue
		d.evict(min)
	}
	e := &dmEntry{Entry: Entry{
		ID: p.ID, Version: version, Size: p.Size, Cost: p.Cost,
		Refs: 1, Subs: subs, LastAccessSeq: d.seq,
	}}
	e.gdValue = d.gdEval(e)
	e.subValue = d.subEval(e)
	d.add(e)
	d.stats.AccessAdmits++
	return false, true
}

func (d *dm) free() int64 { return d.capacity - d.used }

// evict removes a replacement victim and accounts it.
func (d *dm) evict(e *dmEntry) {
	d.remove(e)
	d.stats.Evictions++
	d.stats.EvictedBytes += e.Size
}

func (d *dm) add(e *dmEntry) {
	d.byID[e.ID] = e
	heap.Push(&d.gdHeap, e)
	heap.Push(&d.subHeap, e)
	d.used += e.Size
}

func (d *dm) remove(e *dmEntry) {
	heap.Remove(&d.gdHeap, e.gdIdx)
	heap.Remove(&d.subHeap, e.subIdx)
	delete(d.byID, e.ID)
	d.used -= e.Size
}

// dmHeap is a min-heap over dmEntry with a pluggable value/index accessor,
// so the same entries can live in both orderings simultaneously.
type dmHeap struct {
	items []*dmEntry
	value func(*dmEntry) float64
	index func(*dmEntry) *int
}

func (h *dmHeap) Len() int { return len(h.items) }
func (h *dmHeap) Less(i, j int) bool {
	vi, vj := h.value(h.items[i]), h.value(h.items[j])
	if vi != vj {
		return vi < vj
	}
	return h.items[i].ID < h.items[j].ID
}
func (h *dmHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	*h.index(h.items[i]) = i
	*h.index(h.items[j]) = j
}
func (h *dmHeap) Push(x interface{}) {
	e := x.(*dmEntry)
	*h.index(e) = len(h.items)
	h.items = append(h.items, e)
}
func (h *dmHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	e := old[n-1]
	*h.index(e) = -1
	old[n-1] = nil
	h.items = old[:n-1]
	return e
}
