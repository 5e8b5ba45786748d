package core

// OpStats counts a strategy's placement decisions, exposing why a cache
// behaves the way it does (admission rejections vs evictions vs stale
// refreshes). Every strategy in the catalog implements StatsProvider:
// the single-cache engine family directly, and the composite strategies
// (DM, DC-*) by aggregating the decisions of their push-time and
// access-time modules into one OpStats.
//
// Invariants every implementation maintains (asserted by
// TestEveryStrategyProvidesReconcilingStats):
//
//	PushStores   <= PushOffers
//	Hits + StaleRefreshes <= Requests
//	AccessAdmits + AccessRejects <= Requests - Hits - StaleRefreshes
//	EvictedBytes >= Evictions (pages are at least one byte)
type OpStats struct {
	// PushOffers counts Push calls for non-resident pages;
	// PushStores how many were stored.
	PushOffers int64
	PushStores int64
	// Requests counts Request calls; Hits the fresh local hits;
	// StaleRefreshes the resident-but-outdated refetches.
	Requests       int64
	Hits           int64
	StaleRefreshes int64
	// AccessAdmits counts miss-time admissions; AccessRejects counts
	// gated-admission refusals.
	AccessAdmits  int64
	AccessRejects int64
	// Evictions and EvictedBytes count replacement victims.
	Evictions    int64
	EvictedBytes int64
}

// add accumulates other into s.
func (s *OpStats) add(other OpStats) {
	s.PushOffers += other.PushOffers
	s.PushStores += other.PushStores
	s.Requests += other.Requests
	s.Hits += other.Hits
	s.StaleRefreshes += other.StaleRefreshes
	s.AccessAdmits += other.AccessAdmits
	s.AccessRejects += other.AccessRejects
	s.Evictions += other.Evictions
	s.EvictedBytes += other.EvictedBytes
}

// StatsProvider is implemented by strategies that expose operation
// counters.
type StatsProvider interface {
	OpStats() OpStats
}

// EvictionReporter is implemented by strategies that name the pages
// each operation removed from the cache: replacement victims, DC-AP's
// reclaimed pages and the page a DC-FP move drops, the same removals
// OpStats.Evictions counts. Every strategy in the catalog implements
// it. A caller that mirrors residency, as broker.Proxy does with page
// bodies, reads it after every Push and Request.
type EvictionReporter interface {
	// Evicted returns the IDs of the pages the last Push or Request
	// removed, in eviction order. The slice is reused by the next Push
	// or Request.
	Evicted() []int
}

var (
	_ StatsProvider    = (*engine)(nil)
	_ StatsProvider    = (*dm)(nil)
	_ StatsProvider    = (*dualCache)(nil)
	_ EvictionReporter = (*engine)(nil)
	_ EvictionReporter = (*dm)(nil)
	_ EvictionReporter = (*dualCache)(nil)
)

// Evicted implements EvictionReporter for the single-cache engine
// family.
func (g *engine) Evicted() []int { return g.evicted.ids }

// Evicted implements EvictionReporter for Dual-Methods.
func (d *dm) Evicted() []int { return d.evicted.ids }

// Evicted implements EvictionReporter for the Dual-Caches family.
func (d *dualCache) Evicted() []int { return d.evicted.ids }

// evictionLog is a strategy's eviction report: the page IDs the current
// op evicted. The first few go into an inline buffer and the slice is
// reused across ops, so reporting allocates only if one op ever evicts
// more pages than the buffer holds.
type evictionLog struct {
	ids []int
	buf [4]int
}

// reset starts a new op's report.
func (l *evictionLog) reset() { l.ids = l.ids[:0] }

func (l *evictionLog) add(id int) {
	if l.ids == nil {
		l.ids = l.buf[:0]
	}
	l.ids = append(l.ids, id)
}

// OpStats implements StatsProvider for the single-cache engine family.
func (g *engine) OpStats() OpStats { return g.stats }

// OpStats implements StatsProvider for Dual-Methods: the SUB push-time
// module and GD* access-time module write into one aggregate.
func (d *dm) OpStats() OpStats { return d.stats }

// OpStats implements StatsProvider for the Dual-Caches family (DC-FP,
// DC-AP, DC-LAP): push-cache and access-cache decisions aggregate into
// one OpStats, with partition moves and DC-AP reclamations counted as
// evictions.
func (d *dualCache) OpStats() OpStats { return d.stats }
