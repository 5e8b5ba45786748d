// Live replay engine: drives one strategy's soak against a running
// broker (or cluster) by replaying the generated workload over the
// wire through the simulator's own per-proxy shards (sim.NewReplay).
//
// The mapping from simulated events to wire traffic:
//
//   - Every workload publication becomes a real Publish on a dedicated
//     publisher connection; the broker's matching engine routes it to
//     subscribers exactly as the simulator's EventView pre-routed it.
//   - Under a push scheme, a proxy's publication event waits for the
//     corresponding notification to arrive over the wire (within
//     -push-wait) before offering the page to the proxy's shard — so
//     under chaos, lost notifications become visible parity divergence
//     instead of silently replaying the simulator.
//   - A proxy's request event goes through the proxy's shard; a miss
//     triggers a real Fetch over the proxy's subscriber connection,
//     generating genuine origin traffic on the wire. The fetch first
//     waits (within -push-wait) for the publisher's Publish of the
//     requested version to return, since a request paced at the trace
//     time of that publication can otherwise overtake it.
//
// The shards keep the accounting, so the live outcome is a *sim.Result
// from the same tally the simulator merges. Bodies on the wire are
// capped at -max-body bytes, but the tally uses the logical page size,
// so parity comparisons are body-cap independent.
package main

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/core"
	"pubsubcd/internal/sim"
	"pubsubcd/internal/telemetry"
	"pubsubcd/internal/workload"
)

// arrivalSet records which (page, version) pairs have reached a point
// of the replay — a notification arriving over the wire, or the
// publisher's Publish returning — and lets pacer goroutines wait for a
// specific one with a timeout. Keys pack page<<20|version; workload
// pages stay well under 2^20 and versions under 2^20.
type arrivalSet struct {
	mu      sync.Mutex
	got     map[int64]struct{}
	waiters map[int64][]chan struct{}
}

func newArrivalSet() *arrivalSet {
	return &arrivalSet{
		got:     make(map[int64]struct{}),
		waiters: make(map[int64][]chan struct{}),
	}
}

func arrivalKey(page, version int) int64 {
	return int64(page)<<20 | int64(version)&0xfffff
}

func (a *arrivalSet) record(page, version int) {
	k := arrivalKey(page, version)
	a.mu.Lock()
	if _, ok := a.got[k]; ok {
		a.mu.Unlock()
		return
	}
	a.got[k] = struct{}{}
	ws := a.waiters[k]
	delete(a.waiters, k)
	a.mu.Unlock()
	for _, ch := range ws {
		close(ch)
	}
}

// wait blocks until the (page, version) notification has been
// recorded, the timeout passes, or ctx is cancelled. It reports
// whether the notification arrived.
func (a *arrivalSet) wait(ctx context.Context, page, version int, timeout time.Duration) bool {
	k := arrivalKey(page, version)
	a.mu.Lock()
	if _, ok := a.got[k]; ok {
		a.mu.Unlock()
		return true
	}
	ch := make(chan struct{})
	a.waiters[k] = append(a.waiters[k], ch)
	a.mu.Unlock()

	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

// replayOptions parameterize one strategy's live run.
type replayOptions struct {
	addrs    []string // broker addresses, round-robined across conns
	duration time.Duration
	warmup   time.Duration
	subConns int
	pushWait time.Duration
	maxBody  int64
	// dial overrides the client dial (the faultnet seam); nil uses the
	// default dialer.
	dial func(ctx context.Context, addr string) (net.Conn, error)
}

// dialAttempts bounds dialClient's retries: a chaos drop severs about one
// dial in a hundred, so three attempts all fail about once in a million.
const dialAttempts = 3

// dialClient dials one harness connection. A chaos drop can sever the
// codec negotiation itself, before the connection carries any state, so
// under chaos a failed dial is retried.
func (o replayOptions) dialClient(ctx context.Context, addr string, opts []broker.ClientOption) (*broker.Client, error) {
	var err error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		var c *broker.Client
		c, err = broker.Dial(ctx, addr, opts...)
		if err == nil || o.dial == nil || ctx.Err() != nil {
			return c, err
		}
	}
	return nil, err
}

// replayResult is one strategy's live outcome.
type replayResult struct {
	// result is the shards' merged tally; set once the replay ends.
	result        *sim.Result
	pushesMissed  atomic.Int64
	fetchErrors   atomic.Int64
	publishErrors atomic.Int64
	delivered     atomic.Int64
}

// replayStrategy runs the full soak for one strategy: fresh clients,
// warm-up, open-loop paced replay, teardown. The shards are built from
// simOpts exactly as sim.Run builds them; reg receives their sim.*
// counters and the clients' transport metrics. ns namespaces topics
// and page IDs so sequential strategy runs never collide on the
// broker's per-page version monotonicity.
func replayStrategy(ctx context.Context, w *workload.Workload, f core.Factory, simOpts sim.Options, reg *telemetry.Registry, ns string, o replayOptions) (*replayResult, error) {
	servers := w.Config.Servers
	simOpts.Telemetry = reg
	replay, err := sim.NewReplay(w, f, simOpts)
	if err != nil {
		return nil, err
	}

	rr := &replayResult{}
	arrivals := newArrivalSet()  // notifications received
	published := newArrivalSet() // publishes returned
	topicOf := func(page int) string { return ns + "/p" + strconv.Itoa(page) }
	pagePrefix := ns + "/p"
	warmID := ns + "/warmup"

	nconn := o.subConns
	if nconn <= 0 {
		nconn = 8
	}
	if nconn > servers {
		nconn = servers
	}
	warmSeen := make([]atomic.Int64, nconn)

	clientOpts := func(notify func(broker.Notification)) []broker.ClientOption {
		opts := []broker.ClientOption{
			broker.WithReconnect(broker.BackoffPolicy{}),
			broker.WithRequestTimeout(5 * time.Second),
		}
		if reg != nil {
			opts = append(opts, broker.WithClientTelemetry(reg))
		}
		if o.dial != nil {
			opts = append(opts, broker.WithDialFunc(o.dial))
		}
		if notify != nil {
			opts = append(opts, broker.WithNotify(notify))
		}
		return opts
	}

	conns := make([]*broker.Client, nconn)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := 0; i < nconn; i++ {
		i := i
		notify := func(n broker.Notification) {
			if n.PageID == warmID {
				warmSeen[i].Add(1)
				return
			}
			idx, ok := strings.CutPrefix(n.PageID, pagePrefix)
			if !ok {
				return
			}
			page, err := strconv.Atoi(idx)
			if err != nil {
				return
			}
			rr.delivered.Add(1)
			arrivals.record(page, n.Version)
		}
		c, err := o.dialClient(ctx, o.addrs[i%len(o.addrs)], clientOpts(notify))
		if err != nil {
			return nil, fmt.Errorf("dial subscriber conn %d: %w", i, err)
		}
		conns[i] = c
		// One warm-up subscription per connection so the warm-up phase
		// exercises every notify lane before pacing starts.
		if _, err := c.Subscribe(ctx, 0, []string{warmID}, nil); err != nil {
			return nil, fmt.Errorf("warmup subscribe conn %d: %w", i, err)
		}
	}

	// Per-proxy subscriptions: proxy p subscribes, on its assigned
	// connection, to every page the workload's subscription matrix
	// matches at p — the live mirror of EventView's publication routing.
	for p := 0; p < servers; p++ {
		var topics []string
		for g := range w.Subscriptions {
			if p < len(w.Subscriptions[g]) && w.Subscriptions[g][p] > 0 {
				topics = append(topics, topicOf(g))
			}
		}
		if len(topics) == 0 {
			continue
		}
		if _, err := conns[p%nconn].Subscribe(ctx, p, topics, nil); err != nil {
			return nil, fmt.Errorf("subscribe proxy %d: %w", p, err)
		}
	}

	pub, err := o.dialClient(ctx, o.addrs[0], clientOpts(nil))
	if err != nil {
		return nil, fmt.Errorf("dial publisher: %w", err)
	}
	defer pub.Close()

	body := make([]byte, o.maxBody)
	bodyFor := func(size int64) []byte {
		n := size
		if n > o.maxBody {
			n = o.maxBody
		}
		if n < 1 {
			n = 1
		}
		return body[:n]
	}

	if err := warmUp(ctx, pub, warmID, warmSeen, o.warmup, o.pushWait); err != nil {
		return nil, err
	}

	// Open-loop pacing: event at trace hour t fires at
	// start + duration * t/horizon, independent of how long earlier
	// events took to process.
	horizon := w.Config.Horizon()
	start := time.Now()
	wallOf := func(t float64) time.Time {
		if horizon <= 0 {
			return start
		}
		return start.Add(time.Duration(float64(o.duration) * (t / horizon)))
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, pb := range w.Publications {
			if !sleepUntil(ctx, wallOf(pb.Time)) {
				return
			}
			page := &w.Pages[pb.Page]
			_, err := pub.Publish(ctx, broker.Content{
				ID:      topicOf(pb.Page),
				Version: pb.Version,
				Topics:  []string{topicOf(pb.Page)},
				Body:    bodyFor(page.Size),
			})
			if err != nil {
				rr.publishErrors.Add(1)
			}
			published.record(pb.Page, pb.Version)
		}
	}()

	// Each proxy paces its shard's events at their exact trace times:
	// sh.Events expands the compact stream from the workload's one merge
	// walk, the order the simulator replays. Access-only schemes take no
	// push offer, so their proxies do not wait for the notification
	// either.
	usesPush := f.UsesPush()
	for p, sh := range replay.Shards {
		conn := conns[p%nconn]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, e := range sh.Events() {
				if !sleepUntil(ctx, wallOf(e.Time)) {
					return
				}
				if !e.Request {
					if !usesPush {
						continue
					}
					// Gate the offer on the notification actually
					// arriving over the wire: a dropped notify means
					// the live proxy never saw the publish, and the
					// parity report should show that.
					if !arrivals.wait(ctx, int(e.Page), int(e.Version), o.pushWait) {
						rr.pushesMissed.Add(1)
						continue
					}
					sh.Offer(e)
					continue
				}
				if !sh.Request(e) {
					// A miss is origin traffic: fetch the page for
					// real so the soak exercises the request path,
					// once the version it asks for is published.
					published.wait(ctx, int(e.Page), int(e.Version), o.pushWait)
					fctx, cancel := context.WithTimeout(ctx, 2*time.Second)
					if _, err := conn.Fetch(fctx, topicOf(int(e.Page))); err != nil {
						rr.fetchErrors.Add(1)
					}
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	rr.result = replay.Result()
	if err := ctx.Err(); err != nil {
		return rr, err
	}
	return rr, nil
}

// warmUp publishes on the warm-up topic until every subscriber
// connection has seen at least one notification (or the budget runs
// out), so pacing starts with hot notify lanes and settled codecs.
func warmUp(ctx context.Context, pub *broker.Client, warmID string, warmSeen []atomic.Int64, warmup, grace time.Duration) error {
	if warmup <= 0 {
		warmup = 500 * time.Millisecond
	}
	deadline := time.Now().Add(warmup + grace)
	version := 1
	for time.Now().Before(deadline) {
		if _, err := pub.Publish(ctx, broker.Content{
			ID:      warmID,
			Version: version,
			Topics:  []string{warmID},
			Body:    []byte("warmup"),
		}); err == nil {
			version++
		}
		allWarm := true
		for i := range warmSeen {
			if warmSeen[i].Load() == 0 {
				allWarm = false
				break
			}
		}
		if allWarm && version > 3 {
			return nil
		}
		if !sleepUntil(ctx, time.Now().Add(20*time.Millisecond)) {
			return ctx.Err()
		}
	}
	for i := range warmSeen {
		if warmSeen[i].Load() == 0 {
			return fmt.Errorf("warmup: conn %d saw no notifications within %v", i, warmup+grace)
		}
	}
	return nil
}

// sleepUntil blocks until the deadline or ctx cancellation; it reports
// whether the deadline was reached (false means cancelled).
func sleepUntil(ctx context.Context, deadline time.Time) bool {
	d := time.Until(deadline)
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
