package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"pubsubcd/internal/core"
	"pubsubcd/internal/telemetry"
	"pubsubcd/internal/topology"
	"pubsubcd/internal/workload"
)

// Replay is one run's set of per-proxy replay units: the simulator's
// whole accounting for a strategy on a workload, before any event has
// been replayed. Run drives its shards on a worker pool; a live harness
// drives the same shards from the wire, one goroutine per proxy, and
// both read the outcome through Result, so the two can only differ
// where the events they were fed differ.
type Replay struct {
	// Shards[s] replays proxy server s.
	Shards []*Shard

	res   *Result // header fields; Result fills in the rest
	hours int
}

// NewReplay builds one shard per proxy server of w: a strategy from
// factory sized at the proxy's share of opts.CapacityFraction, the
// proxy's fetch cost (opts.FetchCosts, or the Waxman topology seeded
// by opts.TopologySeed), its event stream and hour index from w's
// EventView, and a private tally. Every shard reads its subscription
// counts from w.Subscriptions, whose shape (one row per page, one
// column per server) NewReplay checks once. opts.Telemetry, when set,
// receives each shard's sim.* outcome counts and its strategy's
// sim.strategy.* decision counts at every trace-hour boundary;
// opts.Parallelism and opts.Spans belong to Run and are ignored here.
func NewReplay(w *workload.Workload, factory core.Factory, opts Options) (*Replay, error) {
	if w == nil {
		return nil, fmt.Errorf("sim: nil workload")
	}
	if !(0 < opts.CapacityFraction && opts.CapacityFraction <= 1) {
		return nil, fmt.Errorf("sim: capacity fraction must be in (0, 1], got %g", opts.CapacityFraction)
	}
	servers := w.Config.Servers
	costs := opts.FetchCosts
	if costs == nil {
		var err error
		costs, err = topology.FetchCosts(servers, opts.TopologySeed)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	if len(costs) != servers {
		return nil, fmt.Errorf("sim: got %d fetch costs for %d servers", len(costs), servers)
	}
	if err := w.CheckSubscriptions(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	view := w.Events()
	capacities := view.CacheCapacities(opts.CapacityFraction)
	hours := view.Hours
	r := &Replay{
		Shards: make([]*Shard, servers),
		hours:  hours,
		res: &Result{
			Strategy:         factory.Name,
			Trace:            string(w.Config.Trace()),
			CapacityFraction: opts.CapacityFraction,
			Beta:             opts.Beta,
			SQ:               w.Config.SQ,
		},
	}
	var counters *runCounters
	if opts.Telemetry != nil {
		counters = newRunCounters(opts.Telemetry, factory.Name)
	}
	usesPush := factory.UsesPush()
	for i := 0; i < servers; i++ {
		s, err := factory.New(core.Params{Capacity: capacities[i], Beta: opts.Beta})
		if err != nil {
			return nil, fmt.Errorf("sim: server %d: %w", i, err)
		}
		sh := &Shard{
			server:     i,
			strategy:   s,
			cost:       costs[i],
			usesPush:   usesPush,
			w:          w,
			pages:      w.Pages,
			stream:     view.Streams[i],
			hourStarts: view.HourStarts[i],
			subs:       w.Subscriptions,
			tally:      newShardTally(hours),
			seen:       make([]bool, len(w.Pages)),
		}
		if counters != nil {
			stats, _ := s.(core.StatsProvider)
			sh.pub = &publication{c: counters, stats: stats}
		}
		r.Shards[i] = sh
	}
	return r, nil
}

// Result merges the shards' tallies into the run's Result in ascending
// server order. Every field is an integer sum or a per-server row, so
// the Result is bit-identical for any schedule the shards replayed on.
// With telemetry on it first publishes what each shard tallied since
// its last hour boundary, so the registry is exact on return. Call it
// once, after every shard has finished: the shards' hourly rows move
// into the Result.
func (r *Replay) Result() *Result {
	servers, hours := len(r.Shards), r.hours
	res := r.res
	res.HourlyHits = make([]int64, hours)
	res.HourlyRequests = make([]int64, hours)
	res.PushedPagesAP = make([]int64, hours)
	res.PushedPagesPWN = make([]int64, hours)
	res.FetchedPages = make([]int64, hours)
	res.PushedBytesAP = make([]int64, hours)
	res.PushedBytesPWN = make([]int64, hours)
	res.FetchedBytes = make([]int64, hours)
	res.PerServerHits = make([]int64, servers)
	res.PerServerRequests = make([]int64, servers)
	res.PerServerHourlyHits = make([][]int64, servers)
	res.PerServerHourlyRequests = make([][]int64, servers)
	for i, sh := range r.Shards {
		if sh.pub != nil {
			sh.pub.publish(sh.tally, hours)
		}
		sh.tally.mergeInto(res, i)
	}
	return res
}

// Shard is the unit of replay: one proxy server's strategy instance,
// its event stream with the stream's hour index, its first-request
// seen-set and its private tally. It reads each event's subscription
// count from the workload's matrix, the one subscription table. Shards
// share only immutable data (the workload and its event view) plus
// atomic registry counters, so any number of shards can
// replay concurrently and the merged result is bit-identical to a
// sequential replay. One shard must be driven by one goroutine at a
// time.
type Shard struct {
	server   int
	strategy core.Strategy
	cost     float64
	usesPush bool
	w        *workload.Workload
	pages    []workload.Page
	// stream is the server's 8-byte event stream; hour h's events are
	// stream[hourStarts[h]:hourStarts[h+1]]. subs is the workload's
	// subscription matrix: subs[page][server] is this server's
	// subscription count for the page.
	stream     []workload.Event
	hourStarts []int32
	subs       [][]int32
	tally      *shardTally
	// seen[page] records whether this server has requested the page
	// before (cold/warm miss classification).
	seen []bool
	// pub publishes the shard's counts to the run's registry; nil when
	// telemetry is off.
	pub *publication
}

// Events returns the shard's event stream in replay order, each event
// expanded with its exact trace time and hour (Workload.TimedEvents),
// for drivers that feed the shard event by event through Offer and
// Request, which take the events in this order. It allocates the
// expanded stream on every call.
func (sh *Shard) Events() []workload.ServerEvent { return sh.w.TimedEvents(sh.server) }

// Offer replays a publication event: the page is offered to the
// proxy's strategy and tallied as a push. Access-only schemes get no
// offer and nothing is tallied.
func (sh *Shard) Offer(ev workload.ServerEvent) {
	sh.enterHour(ev.Hour)
	sh.offer(ev.Hour, int(ev.Page), int(ev.Version))
}

// Request replays a user request event through the proxy's strategy
// and tallies it; a miss is a fetch from the publisher. It reports
// whether the request hit a fresh local copy.
func (sh *Shard) Request(ev workload.ServerEvent) bool {
	sh.enterHour(ev.Hour)
	return sh.request(ev.Hour, int(ev.Page), int(ev.Version))
}

// enterHour publishes the shard's counts through the previous hours
// when it takes its first event of hour.
func (sh *Shard) enterHour(hour int) {
	if p := sh.pub; p != nil && hour > p.hour {
		p.publish(sh.tally, hour)
	}
}

// subCount returns the server's subscription count for page, the S
// every placement decision receives.
func (sh *Shard) subCount(page int) int { return int(sh.subs[page][sh.server]) }

func (sh *Shard) offer(hour, page, version int) {
	if !sh.usesPush {
		return
	}
	size := sh.pages[page].Size
	meta := core.PageMeta{ID: page, Size: size, Cost: sh.cost}
	stored := sh.strategy.Push(meta, version, sh.subCount(page))
	sh.tally.push(hour, size, stored)
}

func (sh *Shard) request(hour, page, version int) bool {
	pg := &sh.pages[page]
	meta := core.PageMeta{ID: page, Size: pg.Size, Cost: sh.cost}
	hit, _ := sh.strategy.Request(meta, version, sh.subCount(page))
	first := !sh.seen[page]
	sh.seen[page] = true
	sh.tally.request(hour, pg.Class, pg.Size, hit, first)
	return hit
}

// replay runs the shard's whole event stream, hour window by hour
// window, publishing at each window's start, under a sim.shard span (a
// no-op nil span when tracing is off, so the event loop itself stays
// untouched).
func (sh *Shard) replay(ctx context.Context) {
	_, sp := telemetry.StartSpan(ctx, "sim.shard")
	if sp != nil {
		sp.SetAttrInt("server", int64(sh.server))
		sp.SetAttrInt("events", int64(len(sh.stream)))
	}
	for h := 0; h+1 < len(sh.hourStarts); h++ {
		sh.enterHour(h)
		for _, ev := range sh.stream[sh.hourStarts[h]:sh.hourStarts[h+1]] {
			if ev.Request() {
				sh.request(h, ev.Page(), int(ev.Version))
			} else {
				sh.offer(h, ev.Page(), int(ev.Version))
			}
		}
	}
	sp.End()
}

// runShards executes the shards on a bounded worker pool of the given
// parallelism (≥ 1). Shards are claimed in index order off an atomic
// cursor; with parallelism 1 this degenerates to an in-order sequential
// replay on the calling goroutine.
func runShards(ctx context.Context, shards []*Shard, parallelism int) {
	if parallelism <= 1 {
		for _, sh := range shards {
			sh.replay(ctx)
		}
		return
	}
	if parallelism > len(shards) {
		parallelism = len(shards)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				shards[i].replay(ctx)
			}
		}()
	}
	wg.Wait()
}
