package core

import "time"

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
	slots    []*dmEntry // by page ID; nil when not cached
	gdHeap   dmHeap     // ordered by the GD* value
	subHeap  dmHeap     // ordered by the SUB value

	stats   OpStats
	metrics *StrategyMetrics
	flushed OpStats
}

type dmEntry struct {
	Entry
	// val holds the page's value under each module and idx its position
	// in that module's heap, both indexed by dmGD and dmSUB.
	val [2]float64
	idx [2]int
}

// The two orderings of a DM page: dmHeap.key selects one.
const (
	dmGD  = 0
	dmSUB = 1
)

var _ Strategy = (*dm)(nil)

// NewDM builds the Dual-Methods strategy.
func NewDM(params Params) (Strategy, error) {
	if err := params.validateBeta(); err != nil {
		return nil, err
	}
	d := &dm{
		capacity: params.Capacity,
		beta:     params.Beta,
		gdHeap:   dmHeap{key: dmGD},
		subHeap:  dmHeap{key: dmSUB},
		metrics:  params.Metrics,
	}
	return d, nil
}

func (d *dm) Name() string    { return "DM" }
func (d *dm) Used() int64     { return d.used }
func (d *dm) Capacity() int64 { return d.capacity }
func (d *dm) Len() int        { return len(d.gdHeap.items) }

// get returns the resident entry for a page, if any.
func (d *dm) get(id int) (*dmEntry, bool) {
	if uint(id) >= uint(len(d.slots)) { // also rejects a negative id
		return nil, false
	}
	e := d.slots[id]
	return e, e != nil
}

func (d *dm) gdEval(e *dmEntry) float64 {
	return d.l + invPow(float64(e.Refs)*e.Cost/float64(e.Size), d.beta)
}

func (d *dm) subEval(e *dmEntry) float64 {
	return subValue(e.Subs, e.Cost, e.Size)
}

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
	if e, ok := d.get(p.ID); ok {
		if version > e.Version {
			e.Version = version
		}
		e.Subs = subs
		e.val[dmSUB] = d.subEval(e)
		d.subHeap.fix(e.idx[dmSUB])
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
		d.evict(d.subHeap.items[0])
	}
	e := &dmEntry{Entry: Entry{
		ID: p.ID, Version: version, Size: p.Size, Cost: p.Cost, Subs: subs,
		LastAccessSeq: d.seq,
	}}
	e.val = [2]float64{dmGD: d.gdEval(e), dmSUB: v}
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
	if e, ok := d.get(p.ID); ok {
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
		e.val[dmGD] = d.gdEval(e)
		d.gdHeap.fix(e.idx[dmGD])
		return fresh, true
	}
	if p.ID < 0 || p.Size > d.capacity {
		d.stats.AccessRejects++
		return false, false
	}
	// Classic GD* replacement: evict ascending GD* value until room.
	for d.free() < p.Size {
		min := d.gdHeap.items[0]
		d.l = min.val[dmGD]
		d.evict(min)
	}
	e := &dmEntry{Entry: Entry{
		ID: p.ID, Version: version, Size: p.Size, Cost: p.Cost,
		Refs: 1, Subs: subs, LastAccessSeq: d.seq,
	}}
	e.val = [2]float64{dmGD: d.gdEval(e), dmSUB: d.subEval(e)}
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
	d.slots = growSlots(d.slots, e.ID)
	d.slots[e.ID] = e
	d.gdHeap.push(e)
	d.subHeap.push(e)
	d.used += e.Size
}

func (d *dm) remove(e *dmEntry) {
	d.gdHeap.remove(e.idx[dmGD])
	d.subHeap.remove(e.idx[dmSUB])
	d.slots[e.ID] = nil
	d.used -= e.Size
}

// dmHeap is a binary min-heap on (val[key], ID) over DM's entries, which
// keeps each entry's position in idx[key], so one entry lives in both
// orderings at once. Its sift loops are entryHeap's.
type dmHeap struct {
	items []*dmEntry
	key   int
}

func (h *dmHeap) less(a, b *dmEntry) bool {
	if va, vb := a.val[h.key], b.val[h.key]; va != vb {
		return va < vb
	}
	return a.ID < b.ID
}

// sumBelow is entryHeap.sumBelow over val[key].
func (h *dmHeap) sumBelow(v float64, need int64) int64 {
	var total int64
	for i := 0; ; {
		if i < len(h.items) && h.items[i].val[h.key] < v {
			total += h.items[i].Size
			if total >= need {
				return total
			}
			i = 2*i + 1
			continue
		}
		if i = nextSubtree(i); i == 0 {
			return total
		}
	}
}

func (h *dmHeap) push(e *dmEntry) {
	h.items = append(h.items, e)
	h.up(len(h.items)-1, e)
}

func (h *dmHeap) remove(i int) {
	n := len(h.items) - 1
	e, last := h.items[i], h.items[n]
	h.items[n] = nil
	h.items = h.items[:n]
	if i != n {
		if !h.down(i, last) {
			h.up(i, last)
		}
	}
	e.idx[h.key] = -1
}

func (h *dmHeap) fix(i int) {
	if e := h.items[i]; !h.down(i, e) {
		h.up(i, e)
	}
}

func (h *dmHeap) up(j int, e *dmEntry) {
	items, k := h.items, h.key
	for j > 0 {
		i := (j - 1) / 2
		p := items[i]
		if !h.less(e, p) {
			break
		}
		items[j], p.idx[k] = p, j
		j = i
	}
	items[j], e.idx[k] = e, j
}

func (h *dmHeap) down(i0 int, e *dmEntry) bool {
	items, k := h.items, h.key
	i, n := i0, len(items)
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if j2 := j + 1; j2 < n && h.less(items[j2], items[j]) {
			j = j2
		}
		c := items[j]
		if !h.less(c, e) {
			break
		}
		items[i], c.idx[k] = c, i
		i = j
	}
	items[i], e.idx[k] = e, i
	return i > i0
}
