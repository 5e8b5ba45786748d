package core

import "math"

// policy describes the behaviour of a single-cache, single-replacement
// strategy (§3.1, §3.2 and the "Single Cache and Single Replacement
// Method" family of §3.3). One engine implementation covers GD*, SUB,
// SG1, SG2, SR and the classic baselines; they differ only in the value
// function and in which placement opportunities they use.
type policy struct {
	name string
	// eval computes the replacement value of an entry given the engine
	// state (inflation L, β, access sequence).
	eval func(g *engine, e *Entry) float64
	// pushEnabled stores matched pages at push time.
	pushEnabled bool
	// cacheOnMiss attempts storage at access-time misses.
	cacheOnMiss bool
	// gatedAdmission admits a page only when the candidate set (entries
	// with strictly smaller value) frees enough space; otherwise the
	// page is forwarded without caching. Without gating the engine
	// evicts unconditionally until the page fits (classic GD*).
	gatedAdmission bool
	// updateOnHit re-evaluates the entry on every hit.
	updateOnHit bool
	// tracksL maintains the GD* inflation value L on evictions.
	tracksL bool
}

// engine is the shared implementation of all single-cache strategies.
type engine struct {
	policy
	store *Store
	l     float64
	beta  float64
	seq   uint64
	stats OpStats

	cand  Entry // admission scratch: the page being valued
	spare freeList[Entry]

	evicted evictionLog
	_       [32]byte // to whole cache lines (TestStrategyStructsFillCacheLines)
}

var _ Strategy = (*engine)(nil)

func newEngine(p policy, params Params) (*engine, error) {
	st, err := NewStore(params.Capacity)
	if err != nil {
		return nil, err
	}
	return &engine{policy: p, store: st, beta: params.Beta}, nil
}

func (g *engine) Name() string    { return g.name }
func (g *engine) Used() int64     { return g.store.Used() }
func (g *engine) Capacity() int64 { return g.store.Capacity() }
func (g *engine) Len() int        { return g.store.Len() }

// Push implements Strategy.
func (g *engine) Push(p PageMeta, version, subs int) bool {
	g.evicted.reset()
	if !g.pushEnabled {
		// Access-time-only schemes do not participate in content
		// pushing at all; resident copies stay stale until a request
		// refetches them.
		return false
	}
	g.seq++
	if e, ok := g.store.Get(p.ID); ok {
		// A new version of a cached page refreshes the copy in place.
		if version > e.Version {
			e.Version = version
		}
		e.Subs = subs
		if g.updateOnHit {
			e.Value = g.eval(g, e)
			g.store.Fix(e)
		}
		return true
	}
	g.stats.PushOffers++
	if g.admit(p, version, subs, 0) {
		g.stats.PushStores++
		return true
	}
	return false
}

// Request implements Strategy.
func (g *engine) Request(p PageMeta, version, subs int) (hit, stored bool) {
	g.evicted.reset()
	g.seq++
	g.stats.Requests++
	if e, ok := g.store.Get(p.ID); ok {
		fresh := e.Version >= version
		if fresh {
			g.stats.Hits++
		} else {
			g.stats.StaleRefreshes++
		}
		if version > e.Version {
			// Stale copy: the fetch refreshes it in place.
			e.Version = version
		}
		e.Refs++
		e.Subs = subs
		e.LastAccessSeq = g.seq
		if g.updateOnHit {
			e.Value = g.eval(g, e)
			g.store.Fix(e)
		}
		return fresh, true
	}
	if !g.cacheOnMiss {
		return false, false
	}
	if g.admit(p, version, subs, 1) {
		g.stats.AccessAdmits++
		return false, true
	}
	g.stats.AccessRejects++
	return false, false
}

// admit runs the replacement algorithm for a page not currently cached.
// refs is the initial access count (1 at access time, 0 at push time).
func (g *engine) admit(p PageMeta, version, subs, refs int) bool {
	if p.ID < 0 || p.Size > g.store.Capacity() {
		return false
	}
	// The page is valued in scratch space and copied out only once
	// admitted, so a rejection allocates nothing.
	g.cand = Entry{
		ID:            p.ID,
		Version:       version,
		Size:          p.Size,
		Cost:          p.Cost,
		Refs:          refs,
		Subs:          subs,
		LastAccessSeq: g.seq,
	}
	limit := math.Inf(1)
	if g.gatedAdmission {
		limit = g.eval(g, &g.cand)
		if !g.store.CanAdmit(p.Size, limit) {
			return false
		}
	}
	evicted, ok := g.store.EvictFor(p.Size, limit)
	for _, ev := range evicted {
		if g.tracksL {
			g.l = ev.Value
		}
		g.stats.Evictions++
		g.stats.EvictedBytes += ev.Size
		g.evicted.add(ev.ID)
	}
	g.spare.put(evicted...)
	if !ok {
		// Unreachable when CanAdmit passed; kept as a safety net for
		// ungated policies with pathological sizes.
		return false
	}
	e := g.spare.get()
	*e = g.cand
	e.Value = g.eval(g, e)
	if err := g.store.Add(e); err != nil {
		g.spare.put(e)
		return false
	}
	return true
}

// invPow returns base^(1/beta), the exponentiation of eq. 1. The paper's
// β = 2 and β = 1 skip math.Pow: it takes the same Sqrt and identity
// branches for exponents 0.5 and 1, so the results are bit-identical.
// The β sweep's 1/2, 1/4, 1/8 and 1/16 square base repeatedly, as
// math.Pow does for an integer exponent on the normalized mantissa, so
// those results are bit-identical too — unless the result is subnormal,
// where math.Pow rounds once at the end and repeated squaring at every
// step; that case falls back to math.Pow.
func invPow(base, beta float64) float64 {
	if base <= 0 {
		return 0
	}
	switch beta {
	case 2:
		return math.Sqrt(base)
	case 1:
		return base
	case 0.5, 0.25, 0.125, 0.0625:
		r := base * base
		for b := beta; b < 0.5; b *= 2 {
			r *= r
		}
		if r >= 0x1p-1022 {
			return r
		}
	}
	return math.Pow(base, 1/beta)
}

// subValue is SUB's value of a page (eq. 2): subscriptions times fetch
// cost per byte.
func subValue(subs int, cost float64, size int64) float64 {
	return float64(subs) * cost / float64(size)
}

// NewGDStar builds the paper's baseline: Greedy-Dual* (eq. 1), an
// access-time-only scheme valuing pages by access frequency and recency,
// fetch cost and size.
func NewGDStar(params Params) (Strategy, error) {
	if err := params.validateBeta(); err != nil {
		return nil, err
	}
	return newEngine(policy{
		name: "GD*",
		eval: func(g *engine, e *Entry) float64 {
			return g.l + invPow(float64(e.Refs)*e.Cost/float64(e.Size), g.beta)
		},
		cacheOnMiss: true,
		updateOnHit: true,
		tracksL:     true,
	}, params)
}

// NewSUB builds the push-time-only scheme of §3.2: pages are valued by
// subscription count (eq. 2), stored only at push time, and forwarded
// without caching on access misses.
func NewSUB(params Params) (Strategy, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	return newEngine(policy{
		name: "SUB",
		eval: func(g *engine, e *Entry) float64 {
			return subValue(e.Subs, e.Cost, e.Size)
		},
		pushEnabled:    true,
		gatedAdmission: true,
	}, params)
}

// NewSG1 builds Subscription-GD*-1 (eq. 3): the GD* framework with the
// frequency factor replaced by subscriptions + accesses, placing at both
// push and access time in a single cache.
func NewSG1(params Params) (Strategy, error) {
	if err := params.validateBeta(); err != nil {
		return nil, err
	}
	return newEngine(policy{
		name: "SG1",
		eval: func(g *engine, e *Entry) float64 {
			f := float64(e.Subs + e.Refs)
			return g.l + invPow(f*e.Cost/float64(e.Size), g.beta)
		},
		pushEnabled:    true,
		cacheOnMiss:    true,
		gatedAdmission: true,
		updateOnHit:    true,
		tracksL:        true,
	}, params)
}

// NewSG2 builds Subscription-GD*-2 (eq. 4): like SG1 but with frequency
// subscriptions − accesses, the estimated number of future references
// (clamped at zero once a page has been read more often than subscribed).
func NewSG2(params Params) (Strategy, error) {
	if err := params.validateBeta(); err != nil {
		return nil, err
	}
	return newEngine(policy{
		name: "SG2",
		eval: func(g *engine, e *Entry) float64 {
			f := float64(e.Subs - e.Refs)
			if f < 0 {
				f = 0
			}
			return g.l + invPow(f*e.Cost/float64(e.Size), g.beta)
		},
		pushEnabled:    true,
		cacheOnMiss:    true,
		gatedAdmission: true,
		updateOnHit:    true,
		tracksL:        true,
	}, params)
}

// NewSR builds the subscription-request scheme (eq. 5): pure future-
// frequency prediction (subscriptions − accesses) scaled by cost and
// size, with no recency inflation and no β.
func NewSR(params Params) (Strategy, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	return newEngine(policy{
		name: "SR",
		eval: func(g *engine, e *Entry) float64 {
			f := float64(e.Subs - e.Refs)
			if f < 0 {
				f = 0
			}
			return f * e.Cost / float64(e.Size)
		},
		pushEnabled:    true,
		cacheOnMiss:    true,
		gatedAdmission: true,
		updateOnHit:    true,
	}, params)
}

// NewLRU builds a classic least-recently-used cache (access-time only).
func NewLRU(params Params) (Strategy, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	return newEngine(policy{
		name: "LRU",
		eval: func(g *engine, e *Entry) float64 {
			return float64(g.seq)
		},
		cacheOnMiss: true,
		updateOnHit: true,
	}, params)
}

// NewGDS builds GreedyDual-Size (Cao & Irani): value = L + cost/size,
// access-time only.
func NewGDS(params Params) (Strategy, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	return newEngine(policy{
		name: "GDS",
		eval: func(g *engine, e *Entry) float64 {
			return g.l + e.Cost/float64(e.Size)
		},
		cacheOnMiss: true,
		updateOnHit: true,
		tracksL:     true,
	}, params)
}

// NewLFUDA builds LFU with dynamic aging: value = L + refs, access-time
// only, In-Cache LFU counting.
func NewLFUDA(params Params) (Strategy, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	return newEngine(policy{
		name: "LFU-DA",
		eval: func(g *engine, e *Entry) float64 {
			return g.l + float64(e.Refs)
		},
		cacheOnMiss: true,
		updateOnHit: true,
		tracksL:     true,
	}, params)
}
