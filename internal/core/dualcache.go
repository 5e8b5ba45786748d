package core

import (
	"fmt"
	"math"
)

// dualCache implements the Dual-Caches family (§3.3): the proxy's storage
// is divided into a push cache (PC, managed by SUB) and an access cache
// (AC, managed by GD*).
//
//   - DC-FP keeps a fixed partition; a PC page moves to AC on its first
//     access, which may trigger replacement in AC.
//   - DC-AP relabels storage instead: a PC page's storage becomes AC
//     storage on first access (no AC replacement), and the placing
//     algorithm may reclaim AC storage holding pages unreferenced since
//     the last AC replacement.
//   - DC-LAP is DC-AP with the PC fraction bounded (default 25–75 %);
//     repartitions that would violate a bound are not performed.
type dualCache struct {
	name     string
	adaptive bool
	minPC    float64 // lower bound on PC fraction (0 when unbounded)
	maxPC    float64 // upper bound on PC fraction (1 when unbounded)

	capacity int64
	beta     float64
	l        float64 // GD* inflation for AC
	seq      uint64
	// lastACRepl is the sequence number of the most recent replacement
	// (eviction) in AC; entries not accessed since then are DC-AP's
	// reclamation candidates.
	lastACRepl uint64
	// activeAC is the bytes of the AC entries accessed since the last AC
	// replacement (LastAccessSeq >= lastACRepl); the rest of ac.Used()
	// is reclaimable.
	activeAC int64

	pc *Store
	ac *Store

	chosen []*Entry // reclaimable's scratch
	spare  freeList[Entry]

	stats   OpStats
	evicted evictionLog
	_       [40]byte // to whole cache lines (TestStrategyStructsFillCacheLines)
}

var _ Strategy = (*dualCache)(nil)

// DefaultDCLAPBounds are the paper's DC-LAP bounds on the PC fraction.
const (
	DefaultDCLAPLower = 0.25
	DefaultDCLAPUpper = 0.75
)

// NewDCFP builds Dual-Caches with Fixed Partition (50 %/50 %).
func NewDCFP(params Params) (Strategy, error) {
	return newDualCache("DC-FP", params, false, 0, 1)
}

// NewDCAP builds Dual-Caches with Adaptive Partition, starting at 50/50.
func NewDCAP(params Params) (Strategy, error) {
	return newDualCache("DC-AP", params, true, 0, 1)
}

// NewDCLAP builds Dual-Caches with Limited Adaptive Partition, starting
// at 50/50 with the PC fraction bounded in [0.25, 0.75].
func NewDCLAP(params Params) (Strategy, error) {
	return NewDCLAPBounded(params, DefaultDCLAPLower, DefaultDCLAPUpper)
}

// NewDCLAPBounded builds DC-LAP with custom bounds on the PC fraction.
func NewDCLAPBounded(params Params, lower, upper float64) (Strategy, error) {
	if lower < 0 || upper > 1 || lower > upper {
		return nil, fmt.Errorf("core: DC-LAP bounds [%g, %g] invalid", lower, upper)
	}
	return newDualCache("DC-LAP", params, true, lower, upper)
}

func newDualCache(name string, params Params, adaptive bool, minPC, maxPC float64) (*dualCache, error) {
	if err := params.validateBeta(); err != nil {
		return nil, err
	}
	half := params.Capacity / 2
	pc, err := NewStore(half)
	if err != nil {
		return nil, err
	}
	ac, err := NewStore(params.Capacity - half)
	if err != nil {
		return nil, err
	}
	return &dualCache{
		name:     name,
		adaptive: adaptive,
		minPC:    minPC,
		maxPC:    maxPC,
		capacity: params.Capacity,
		beta:     params.Beta,
		pc:       pc,
		ac:       ac,
	}, nil
}

func (d *dualCache) Name() string    { return d.name }
func (d *dualCache) Used() int64     { return d.pc.Used() + d.ac.Used() }
func (d *dualCache) Capacity() int64 { return d.capacity }
func (d *dualCache) Len() int        { return d.pc.Len() + d.ac.Len() }

// PCFraction returns the current fraction of storage assigned to the push
// cache (informational; used by tests and the partition ablation).
func (d *dualCache) PCFraction() float64 {
	return float64(d.pc.Capacity()) / float64(d.capacity)
}

func (d *dualCache) gdEval(e *Entry) float64 {
	return d.l + invPow(float64(e.Refs)*e.Cost/float64(e.Size), d.beta)
}

func (d *dualCache) subEval(e *Entry) float64 {
	return subValue(e.Subs, e.Cost, e.Size)
}

// Push implements the placing algorithm.
func (d *dualCache) Push(p PageMeta, version, subs int) bool {
	d.evicted.reset()
	d.seq++
	// A resident page (in either cache) is refreshed in place.
	if e, ok := d.pc.Get(p.ID); ok {
		if version > e.Version {
			e.Version = version
		}
		e.Subs = subs
		e.Value = d.subEval(e)
		d.pc.Fix(e)
		return true
	}
	if e, ok := d.ac.Get(p.ID); ok {
		if version > e.Version {
			e.Version = version
		}
		e.Subs = subs
		return true
	}
	d.stats.PushOffers++
	if p.ID < 0 {
		return false
	}
	v := subValue(subs, p.Cost, p.Size)
	// Run SUB on the push cache; DC-AP falls back to reclaiming idle AC
	// storage for the page.
	if p.Size <= d.pc.Capacity() && d.pc.CanAdmit(p.Size, v) {
		evicted, ok := d.pc.EvictFor(p.Size, v)
		d.discard(evicted...)
		if !ok {
			return false
		}
	} else if !d.adaptive || !d.reclaimFor(p.Size) {
		return false
	}
	e := d.spare.get()
	*e = Entry{
		ID: p.ID, Version: version, Size: p.Size, Cost: p.Cost,
		Value: v, Subs: subs, LastAccessSeq: d.seq,
	}
	if d.pc.Add(e) != nil {
		d.spare.put(e)
		return false
	}
	d.stats.PushStores++
	return true
}

// discard accounts replacement victims, which no store holds any more,
// reports them and recycles them.
func (d *dualCache) discard(evicted ...*Entry) {
	for _, ev := range evicted {
		d.stats.Evictions++
		d.stats.EvictedBytes += ev.Size
		d.evicted.add(ev.ID)
	}
	d.spare.put(evicted...)
}

// acEvictFor runs GD* replacement on AC until size bytes are free. A
// replacement leaves every AC page unreferenced since it, so activeAC
// restarts from zero.
func (d *dualCache) acEvictFor(size int64) bool {
	evicted, ok := d.ac.EvictFor(size, math.Inf(1))
	if len(evicted) > 0 {
		d.l = evicted[len(evicted)-1].Value
		d.lastACRepl = d.seq
		d.activeAC = 0
		d.discard(evicted...)
	}
	return ok
}

// addToAC stores a page accessed in the current op in AC.
func (d *dualCache) addToAC(e *Entry) bool {
	if d.ac.Add(e) != nil {
		return false
	}
	d.activeAC += e.Size
	return true
}

// reclaimFor implements DC-AP's placing fallback: storage of AC pages
// unreferenced since the last AC replacement is relabeled PC so that a
// page of the given size fits in PC.
func (d *dualCache) reclaimFor(size int64) bool {
	need := size - d.pc.Free()
	if need <= 0 {
		// SUB failed on value grounds, not space; DC-AP only reassigns
		// storage, it does not override SUB's value decision.
		return false
	}
	// Most attempts fail, and two failures are known without a walk:
	// the idle pages together fall short of need, or relabeling even
	// need bytes breaks DC-LAP's upper bound on the PC fraction (a walk
	// frees at least need).
	if d.ac.Used()-d.activeAC < need ||
		float64(d.pc.Capacity()+need)/float64(d.capacity) > d.maxPC {
		return false
	}
	chosen, freed := d.reclaimable(need)
	// The idle bytes cover need, so the walk reaches it; what it frees
	// past need must still respect DC-LAP's upper bound.
	if freed < need || float64(d.pc.Capacity()+freed)/float64(d.capacity) > d.maxPC {
		return false
	}
	for _, c := range chosen {
		d.ac.Remove(c.ID)
	}
	d.discard(chosen...)
	// Neither can fail: AC just lost freed bytes of pages and PC only
	// grows.
	_ = d.ac.SetCapacity(d.ac.Capacity() - freed)
	_ = d.pc.SetCapacity(d.pc.Capacity() + freed)
	return true
}

// reclaimable picks the AC pages DC-AP reclaims for need bytes: among
// the pages unreferenced since the last AC replacement, the fewest in
// ascending AC (GD*) order, (Value, ID), whose sizes reach need. It
// walks AC best-first and stops there, so it visits only the entries
// below the last one chosen. freed < need means the idle pages together
// fall short. The slice is reused by the next call.
func (d *dualCache) reclaimable(need int64) (chosen []*Entry, freed int64) {
	clear(d.chosen)
	chosen = d.chosen[:0]
	d.ac.ascend(func(x *Entry) bool {
		if x.LastAccessSeq < d.lastACRepl {
			chosen = append(chosen, x)
			freed += x.Size
		}
		return freed < need
	})
	d.chosen = chosen
	return chosen, freed
}

// Request implements the locating algorithm.
func (d *dualCache) Request(p PageMeta, version, subs int) (hit, stored bool) {
	d.evicted.reset()
	d.seq++
	d.stats.Requests++
	if e, ok := d.pc.Get(p.ID); ok {
		fresh := e.Version >= version
		d.countOutcome(fresh)
		if version > e.Version {
			e.Version = version
		}
		e.Refs++
		e.Subs = subs
		e.LastAccessSeq = d.seq
		// First access: the page moves from PC to AC, or is dropped.
		return fresh, d.moveToAC(e)
	}
	if e, ok := d.ac.Get(p.ID); ok {
		fresh := e.Version >= version
		d.countOutcome(fresh)
		if version > e.Version {
			e.Version = version
		}
		e.Refs++
		e.Subs = subs
		if e.LastAccessSeq < d.lastACRepl {
			d.activeAC += e.Size // idle no more
		}
		e.LastAccessSeq = d.seq
		e.Value = d.gdEval(e)
		d.ac.Fix(e)
		return fresh, true
	}
	// Miss: standard GD* replacement on AC.
	if p.ID < 0 || p.Size > d.ac.Capacity() {
		d.stats.AccessRejects++
		return false, false
	}
	if !d.acEvictFor(p.Size) {
		d.stats.AccessRejects++
		return false, false
	}
	e := d.spare.get()
	*e = Entry{
		ID: p.ID, Version: version, Size: p.Size, Cost: p.Cost,
		Refs: 1, Subs: subs, LastAccessSeq: d.seq,
	}
	e.Value = d.gdEval(e)
	if !d.addToAC(e) {
		d.spare.put(e)
		d.stats.AccessRejects++
		return false, false
	}
	d.stats.AccessAdmits++
	return false, true
}

// countOutcome accounts a resident request as a fresh hit or a stale
// refresh.
func (d *dualCache) countOutcome(fresh bool) {
	if fresh {
		d.stats.Hits++
	} else {
		d.stats.StaleRefreshes++
	}
}

// moveToAC transfers a first-accessed PC page to the access cache. DC-AP
// relabels the storage (growing AC by the page's size); DC-FP moves the
// page into the existing AC space, evicting as needed. DC-LAP relabels
// only while the PC fraction stays above its lower bound, falling back to
// the DC-FP move otherwise. It reports whether the page is resident
// afterwards: a DC-FP move drops a page larger than all of AC, counted
// as an eviction.
func (d *dualCache) moveToAC(e *Entry) bool {
	d.pc.Remove(e.ID)
	e.Value = d.gdEval(e)
	if d.adaptive {
		newPCFrac := float64(d.pc.Capacity()-e.Size) / float64(d.capacity)
		if newPCFrac >= d.minPC {
			// SetCapacity cannot fail here: PC just freed e.Size bytes
			// and AC only grows.
			_ = d.pc.SetCapacity(d.pc.Capacity() - e.Size)
			_ = d.ac.SetCapacity(d.ac.Capacity() + e.Size)
			return d.addToAC(e)
		}
	}
	// DC-FP move: may trigger replacement in AC.
	if e.Size > d.ac.Capacity() {
		// The page cannot live in AC: drop it.
		d.discard(e)
		return false
	}
	// acEvictFor always succeeds: nothing in AC is valued above +Inf.
	return d.acEvictFor(e.Size) && d.addToAC(e)
}
