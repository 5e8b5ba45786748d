package workload

import (
	"math"
	"sync"
)

// Event is one 8-byte entry of a proxy server's event stream: a matched
// publication routed to the server or a local user request. A stream is
// ordered exactly as the server observes events in the global
// interleaved replay: ascending time, publications before requests at
// equal timestamps, and ties otherwise broken by position in the
// original streams.
//
// An entry holds no time and no subscription count: the stream's hour
// index (EventView.HourStarts) places it in its hour, and the
// workload's subscription matrix (Workload.Subscriptions) holds the
// count for its page at the server. TestEventEntryIsEightBytes pins
// the size.
type Event struct {
	// pageReq holds the page ID in its low 31 bits and the request
	// flag in the top bit.
	pageReq uint32
	// Version carries everything a shard needs from the global
	// publication timeline: for a publication it is the published
	// version; for a request it is the page version current at the
	// request (the highest version published at or before it, floored
	// at 0). Shards therefore replay without shared mutable version
	// state.
	Version int32
}

const requestBit = 1 << 31

func newEvent(page, version int32, request bool) Event {
	e := Event{pageReq: uint32(page), Version: version}
	if request {
		e.pageReq |= requestBit
	}
	return e
}

// Page returns the event's page ID.
func (e Event) Page() int { return int(e.pageReq &^ requestBit) }

// Request reports whether the event is a user request (true) or a
// publication routed to the server (false).
func (e Event) Request() bool { return e.pageReq&requestBit != 0 }

// ServerEvent is one stream event expanded with its exact trace time and
// its hour: the input of a per-event driver such as the live soak,
// which paces every event at its time. Workload.TimedEvents builds
// these on demand; the event view never stores them.
type ServerEvent struct {
	Time float64
	// Hour is the event's hour window in the view's hour index.
	Hour    int
	Page    int32
	Version int32
	// Request distinguishes request events from publication events.
	Request bool
}

// EventView is a read-only decomposition of a workload into per-server
// event streams plus the per-server aggregates the simulator sizes
// caches from. It is the sharding substrate of the parallel simulator:
// each proxy's stream and hour index are self-contained (resolved
// versions are baked in), so per-server replays share nothing but
// immutable data. The view holds no subscription counts: a replay
// reads them from the workload's own matrix (Workload.Subscriptions),
// the one subscription table.
//
// A view is built once per workload (see Workload.Events) and must not
// be mutated.
type EventView struct {
	// Streams[s] is server s's event stream, 8 bytes per event.
	// Publication events appear only at servers with at least one
	// matching subscription — exactly the routing the matching engine
	// performs in the sequential loop.
	Streams [][]Event
	// HourStarts[s] is server s's hour index, Hours+1 offsets into
	// Streams[s]: hour h's events are
	// Streams[s][HourStarts[s][h]:HourStarts[s][h+1]], and the last
	// offset is len(Streams[s]). An event's hour is its time truncated
	// and clamped to [0, Hours-1], so events at or past the horizon
	// fall in the last hour.
	HourStarts [][]int32
	// Hours is the number of simulation hours, the horizon rounded up.
	Hours int
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

// hours returns the number of simulation hours: the horizon rounded up.
func (w *Workload) hours() int { return int(math.Ceil(w.Config.Horizon())) }

// hourOf clamps an event time to a valid hour index in [0, hours-1].
func hourOf(t float64, hours int) int {
	return min(max(int(t), 0), hours-1)
}

// walk replays the global interleaved (publications, requests) merge,
// the one definition of the replay order: ascending time, and
// publications before requests at equal timestamps (content becomes
// available, then is read). It calls pub for each publication and req
// for each request with the page version current at it.
func (w *Workload) walk(pub func(p *Publication), req func(r *Request, version int32)) {
	current := make([]int32, len(w.Pages))
	for i := range current {
		current[i] = -1 // not yet published
	}
	pubs, reqs := w.Publications, w.Requests
	pi, ri := 0, 0
	for pi < len(pubs) || ri < len(reqs) {
		if pi < len(pubs) && (ri >= len(reqs) || pubs[pi].Time <= reqs[ri].Time) {
			p := &pubs[pi]
			pi++
			if p.Version > current[p.Page] {
				current[p.Page] = p.Version
			}
			pub(p)
			continue
		}
		r := &reqs[ri]
		ri++
		// Requests are generated after first publication, so the floor
		// only guards float boundary artifacts.
		req(r, max(current[r.Page], 0))
	}
}

// buildEventView walks the global merge once and splits it into
// per-server streams, recording each server's hour index as the walk
// crosses hour boundaries.
func buildEventView(w *Workload) *EventView {
	servers, hours := w.Config.Servers, w.hours()
	v := &EventView{
		Streams:     make([][]Event, servers),
		HourStarts:  make([][]int32, servers),
		Hours:       hours,
		UniqueBytes: uniqueBytes(w),
	}
	subscribers := subscriberLists(w.Subscriptions)

	// Pre-count events per server so each stream is allocated exactly
	// once; the hour indexes share one backing array.
	counts := make([]int, servers)
	for _, p := range w.Publications {
		for _, s := range subscribers.of(p.Page) {
			counts[s]++
		}
	}
	for _, r := range w.Requests {
		counts[r.Server]++
	}
	starts := make([]int32, servers*(hours+1))
	for s := range v.Streams {
		v.Streams[s] = make([]Event, 0, counts[s])
		v.HourStarts[s] = starts[s*(hours+1) : (s+1)*(hours+1) : (s+1)*(hours+1)]
	}

	// hour is the last hour whose start every server has recorded;
	// hour 0 starts at offset 0.
	hour := 0
	advance := func(h int) {
		for hour < h {
			hour++
			for s, stream := range v.Streams {
				v.HourStarts[s][hour] = int32(len(stream))
			}
		}
	}
	w.walk(func(p *Publication) {
		advance(hourOf(p.Time, hours))
		e := newEvent(p.Page, p.Version, false)
		for _, s := range subscribers.of(p.Page) {
			v.Streams[s] = append(v.Streams[s], e)
		}
	}, func(r *Request, version int32) {
		advance(hourOf(r.Time, hours))
		v.Streams[r.Server] = append(v.Streams[r.Server], newEvent(r.Page, version, true))
	})
	advance(hours)
	return v
}

// pageSubscribers holds, for each page, the servers with at least one
// matching subscription, ascending: page p's list is
// servers[starts[p]:starts[p+1]]. A page has a few subscribing servers
// out of all of them, so the event view's passes over a page's
// subscribers visit only these.
type pageSubscribers struct {
	starts  []int32
	servers []int32
}

// subscriberLists builds the per-page lists from the subscription
// matrix: one scan sizes them, a second fills them.
func subscriberLists(matrix [][]int32) pageSubscribers {
	l := pageSubscribers{starts: make([]int32, len(matrix)+1)}
	for page, row := range matrix {
		n := int32(0)
		for _, c := range row {
			if c > 0 {
				n++
			}
		}
		l.starts[page+1] = l.starts[page] + n
	}
	l.servers = make([]int32, 0, l.starts[len(matrix)])
	for _, row := range matrix {
		for s, c := range row {
			if c > 0 {
				l.servers = append(l.servers, int32(s))
			}
		}
	}
	return l
}

// of returns page's subscribing servers.
func (l pageSubscribers) of(page int32) []int32 {
	return l.servers[l.starts[page]:l.starts[page+1]]
}

// TimedEvents returns server s's event stream expanded with each
// event's exact trace time and hour, from the same merge walk that
// builds the view's streams. It allocates the expanded stream on every
// call, so it serves per-event drivers that pace on trace time (the
// live soak), not the simulator's replay loop.
func (w *Workload) TimedEvents(s int) []ServerEvent {
	hours := w.hours()
	var out []ServerEvent
	w.walk(func(p *Publication) {
		if w.Subscriptions[p.Page][s] > 0 {
			out = append(out, ServerEvent{Time: p.Time, Hour: hourOf(p.Time, hours), Page: p.Page, Version: p.Version})
		}
	}, func(r *Request, version int32) {
		if int(r.Server) == s {
			out = append(out, ServerEvent{Time: r.Time, Hour: hourOf(r.Time, hours), Page: r.Page, Version: version, Request: true})
		}
	})
	return out
}

// uniqueBytes returns, for each server, the total size of the distinct
// pages it requests over the trace: one pass over the requests, which
// both the event view and the workload's cache sizing use.
func uniqueBytes(w *Workload) []int64 {
	servers := w.Config.Servers
	out := make([]int64, servers)
	seen := make([]bool, len(w.Pages)*servers)
	for _, r := range w.Requests {
		if k := int(r.Page)*servers + int(r.Server); !seen[k] {
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
