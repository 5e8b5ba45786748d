package workload

import "sync"

// ServerEvent is one entry of a proxy server's private event stream: a
// matched publication routed to the server (Request == false) or a local
// user request (Request == true). The stream is ordered exactly as the
// server observes events in the global interleaved replay: ascending
// time, publications before requests at equal timestamps, and ties
// otherwise broken by position in the original streams.
//
// Version carries everything a shard needs from the global publication
// timeline: for a publication event it is the published version; for a
// request event it is the page version current at the request (the
// highest version published at or before it, with the same ≥0 floor the
// sequential simulator applies). Shards therefore replay without any
// shared mutable version state.
type ServerEvent struct {
	Time    float64
	Page    int32
	Version int32
	// Subs is the number of local subscriptions matching the page.
	Subs int32
	// Request distinguishes request events from publication events.
	Request bool
}

// EventView is a read-only decomposition of a workload into per-server
// event streams plus the per-server aggregates the simulator sizes
// caches from. It is the sharding substrate of the parallel simulator:
// each proxy's stream is self-contained (subscription counts and
// resolved versions are baked in), so per-server replays share nothing
// but immutable data.
//
// A view is built once per workload (see Workload.Events) and must not
// be mutated.
type EventView struct {
	// Streams[s] is server s's event stream. Publication events appear
	// only at servers with at least one matching subscription — exactly
	// the routing the matching engine performs in the sequential loop.
	Streams [][]ServerEvent
	// UniqueBytes[s] is the total size of the distinct pages server s
	// requests over the trace (the cache-sizing base of §5.1).
	UniqueBytes []int64
}

// Events returns the workload's event view, building and caching it on
// first use. It is safe for concurrent use; all callers observe the
// same immutable view.
func (w *Workload) Events() *EventView {
	w.eventsOnce.Do(func() { w.events = buildEventView(w) })
	return w.events
}

// buildEventView replays the global interleaved (publications, requests)
// merge once — the same order and version bookkeeping as the sequential
// simulator — and splits it into per-server streams.
func buildEventView(w *Workload) *EventView {
	servers := w.Config.Servers
	v := &EventView{
		Streams:     make([][]ServerEvent, servers),
		UniqueBytes: uniqueBytes(w),
	}

	// Pre-count events per server so each stream is allocated exactly
	// once.
	counts := make([]int, servers)
	for _, p := range w.Publications {
		row := w.Subscriptions[p.Page]
		for s := 0; s < servers; s++ {
			if row[s] > 0 {
				counts[s]++
			}
		}
	}
	for _, r := range w.Requests {
		counts[r.Server]++
	}
	for s := range v.Streams {
		v.Streams[s] = make([]ServerEvent, 0, counts[s])
	}

	current := make([]int32, len(w.Pages))
	for i := range current {
		current[i] = -1 // not yet published
	}
	pubs, reqs := w.Publications, w.Requests
	pi, ri := 0, 0
	for pi < len(pubs) || ri < len(reqs) {
		// Publications at the same timestamp precede requests (content
		// becomes available, then is read) — the sequential loop's rule.
		if pi < len(pubs) && (ri >= len(reqs) || pubs[pi].Time <= reqs[ri].Time) {
			p := pubs[pi]
			pi++
			if int32(p.Version) > current[p.Page] {
				current[p.Page] = int32(p.Version)
			}
			row := w.Subscriptions[p.Page]
			for s := 0; s < servers; s++ {
				if row[s] == 0 {
					continue
				}
				v.Streams[s] = append(v.Streams[s], ServerEvent{
					Time:    p.Time,
					Page:    int32(p.Page),
					Version: int32(p.Version),
					Subs:    row[s],
				})
			}
			continue
		}
		r := reqs[ri]
		ri++
		version := current[r.Page]
		if version < 0 {
			// Requests are generated after first publication, so this
			// only guards float boundary artifacts.
			version = 0
		}
		v.Streams[r.Server] = append(v.Streams[r.Server], ServerEvent{
			Time:    r.Time,
			Page:    int32(r.Page),
			Version: version,
			Subs:    w.Subscriptions[r.Page][r.Server],
			Request: true,
		})
	}
	return v
}

// uniqueBytes returns, for each server, the total size of the distinct
// pages it requests over the trace: one pass over the requests, which
// both the event view and the workload's cache sizing use.
func uniqueBytes(w *Workload) []int64 {
	servers := w.Config.Servers
	out := make([]int64, servers)
	seen := make([]bool, len(w.Pages)*servers)
	for _, r := range w.Requests {
		if k := r.Page*servers + r.Server; !seen[k] {
			seen[k] = true
			out[r.Server] += w.Pages[r.Page].Size
		}
	}
	return out
}

// CacheCapacities returns per-server cache capacities in bytes for a
// capacity fraction, computed from the view's unique-byte totals.
func (v *EventView) CacheCapacities(fraction float64) []int64 {
	return capacities(v.UniqueBytes, fraction)
}

// capacities scales per-server unique-byte totals by a capacity
// fraction. Servers that request nothing get a minimal 1-byte cache so
// the strategies stay well-defined.
func capacities(unique []int64, fraction float64) []int64 {
	out := make([]int64, len(unique))
	for i, u := range unique {
		out[i] = max(int64(float64(u)*fraction), 1)
	}
	return out
}

// eventsCache is embedded in Workload to memoise the event view.
type eventsCache struct {
	eventsOnce sync.Once
	events     *EventView
}
