package sim

import (
	"pubsubcd/internal/core"
	"pubsubcd/internal/telemetry"
)

// runCounters are a run's registry series: the sim.* outcome tallies
// and the sim.strategy.*{strategy} placement decisions, the nine
// OpStats counts. The handles are atomic, so every shard of a run adds
// to the one set, concurrently.
type runCounters struct {
	requests, hits, coldMisses, warmMisses      *telemetry.Counter
	pushedPagesAP, pushedPagesPWN, fetchedPages *telemetry.Counter
	pushedBytesAP, pushedBytesPWN, fetchedBytes *telemetry.Counter
	pushOffers, pushStores, stratRequests       *telemetry.Counter
	stratHits, staleRefreshes                   *telemetry.Counter
	accessAdmits, accessRejects                 *telemetry.Counter
	evictions, evictedBytes                     *telemetry.Counter
}

func newRunCounters(reg *telemetry.Registry, strategy string) *runCounters {
	sc := func(name string) *telemetry.Counter {
		return reg.CounterVec("sim.strategy."+name, "strategy").With(strategy)
	}
	return &runCounters{
		requests:       reg.Counter("sim.requests"),
		hits:           reg.Counter("sim.hits"),
		coldMisses:     reg.Counter("sim.cold_misses"),
		warmMisses:     reg.Counter("sim.warm_misses"),
		pushedPagesAP:  reg.Counter("sim.pushed_pages_ap"),
		pushedPagesPWN: reg.Counter("sim.pushed_pages_pwn"),
		fetchedPages:   reg.Counter("sim.fetched_pages"),
		pushedBytesAP:  reg.Counter("sim.pushed_bytes_ap"),
		pushedBytesPWN: reg.Counter("sim.pushed_bytes_pwn"),
		fetchedBytes:   reg.Counter("sim.fetched_bytes"),
		pushOffers:     sc("push_offers"),
		pushStores:     sc("push_stores"),
		stratRequests:  sc("requests"),
		stratHits:      sc("hits"),
		staleRefreshes: sc("stale_refreshes"),
		accessAdmits:   sc("access_admits"),
		accessRejects:  sc("access_rejects"),
		evictions:      sc("evictions"),
		evictedBytes:   sc("evicted_bytes"),
	}
}

// publication is one shard's share of the run's registry: the shared
// counters plus what this shard has already added to them. A shard
// publishes at every trace-hour boundary, so the registry trails its
// tally by at most the hour it is in; Replay.Result publishes the rest.
type publication struct {
	c *runCounters
	// stats is the shard's strategy, nil when it keeps no OpStats.
	stats core.StatsProvider
	// hour is the first tally row not yet in the registry; the cold and
	// warm miss counts and ops are the totals at the last publication.
	hour                   int
	coldMisses, warmMisses int64
	ops                    core.OpStats
}

// publish adds to the registry the tally rows [p.hour, upTo) and the
// strategy's decisions since the last publication. Events reach a
// shard in hour order, so every count tallied so far lies in those
// rows.
func (p *publication) publish(t *shardTally, upTo int) {
	c := p.c
	for h := p.hour; h < upTo; h++ {
		c.requests.Add(t.hourlyRequests[h])
		c.hits.Add(t.hourlyHits[h])
		c.pushedPagesAP.Add(t.pushedPagesAP[h])
		c.pushedPagesPWN.Add(t.pushedPagesPWN[h])
		c.fetchedPages.Add(t.fetchedPages[h])
		c.pushedBytesAP.Add(t.pushedBytesAP[h])
		c.pushedBytesPWN.Add(t.pushedBytesPWN[h])
		c.fetchedBytes.Add(t.fetchedBytes[h])
	}
	p.hour = upTo
	c.coldMisses.Add(t.coldMisses - p.coldMisses)
	c.warmMisses.Add(t.warmMisses - p.warmMisses)
	p.coldMisses, p.warmMisses = t.coldMisses, t.warmMisses
	if p.stats == nil {
		return
	}
	cur, prev := p.stats.OpStats(), p.ops
	c.pushOffers.Add(cur.PushOffers - prev.PushOffers)
	c.pushStores.Add(cur.PushStores - prev.PushStores)
	c.stratRequests.Add(cur.Requests - prev.Requests)
	c.stratHits.Add(cur.Hits - prev.Hits)
	c.staleRefreshes.Add(cur.StaleRefreshes - prev.StaleRefreshes)
	c.accessAdmits.Add(cur.AccessAdmits - prev.AccessAdmits)
	c.accessRejects.Add(cur.AccessRejects - prev.AccessRejects)
	c.evictions.Add(cur.Evictions - prev.Evictions)
	c.evictedBytes.Add(cur.EvictedBytes - prev.EvictedBytes)
	p.ops = cur
}
