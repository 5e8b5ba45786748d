package cluster

// The cluster router: Node's broker.Backend implementation. Requests
// arriving at this member are either explicit partition forwards from
// a peer router (apply here, after validating the sender's ring view)
// or fresh edge requests (resolve the owning partition and node, and
// forward over the member links). The edge keeps the authoritative
// record of its acked subscriptions and re-binds them whenever the
// ring changes, which is what preserves the acked ⊆ delivered
// invariant across node failures: owner-side registries are a derived
// (journaled, handed-off) acceleration of the edges' route tables.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/match"
	"pubsubcd/internal/telemetry"
)

// RingVersion implements broker.RingVersioner: responses from this
// member advertise its ring version.
func (n *Node) RingVersion() uint64 { return n.ringV.Load() }

// CheckRing implements broker.RingChecker: a forwarded request is
// rejected when the sender routed with an older ring, or when this
// member does not own the target partition under its current ring.
func (n *Node) CheckRing(version uint64, partition int) error {
	if n.retired.Load() {
		// Rejecting ring-stamped traffic (including peer pings) is how
		// a retired member is expelled from the peers' rings; its own
		// edge clients don't stamp and keep being served.
		n.staleReject()
		return broker.StaleRingError("node %s has retired from the cluster", n.cfg.NodeID)
	}
	n.mu.Lock()
	cur := n.ring
	n.mu.Unlock()
	if version > cur.Version() {
		// The sender is ahead: it saw a membership change we have not
		// noticed yet. Accelerate our own detector; the ownership
		// check below still guards the request itself.
		n.noteVersionFloor(version)
		n.nudgeProbe()
	}
	if version != 0 && version < cur.Version() {
		n.staleReject()
		return broker.StaleRingError("node %s is at ring %d, request routed at %d",
			n.cfg.NodeID, cur.Version(), version)
	}
	if partition >= 0 {
		if partition >= cur.Partitions() {
			return fmt.Errorf("cluster: partition %d out of range (cluster has %d)", partition, cur.Partitions())
		}
		if owner := cur.Owner(partition); owner != n.cfg.NodeID {
			n.staleReject()
			return broker.StaleRingError("partition %d is owned by %s, not %s (ring %d)",
				partition, owner, n.cfg.NodeID, cur.Version())
		}
	}
	return nil
}

func (n *Node) staleReject() {
	if n.met != nil {
		n.met.staleRejects.Inc()
	}
}

// partitionEngine returns the local engine for p, or a stale-ring
// error when this member does not hold it.
func (n *Node) partitionEngine(p int) (*broker.Broker, error) {
	n.mu.Lock()
	b := n.parts[p]
	n.mu.Unlock()
	if b == nil {
		n.staleReject()
		return nil, broker.StaleRingError("partition %d is not resident on %s", p, n.cfg.NodeID)
	}
	return b, nil
}

// quarantinedUntil returns the settle deadline for p (zero when not
// quarantined).
func (n *Node) quarantinedUntil(p int) time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.quarantine[p]
}

// --- Publish ---------------------------------------------------------

// PublishContext routes a publish. A partition-scoped forward from a
// peer applies to that partition only; an edge publish fans out to
// the distinct partitions of the content's topics (or the page-ID
// partition for topic-less content), buffering and re-routing each
// leg until its owner accepts it or ForwardTimeout expires.
func (n *Node) PublishContext(ctx context.Context, c broker.Content) (int, error) {
	if rt, ok := broker.RouteFromContext(ctx); ok && rt.Partition >= 0 {
		if until := n.quarantinedUntil(rt.Partition); time.Now().Before(until) {
			n.staleReject()
			return 0, broker.StaleRingError("partition %d is settling after an ownership change", rt.Partition)
		}
		eng, err := n.partitionEngine(rt.Partition)
		if err != nil {
			return 0, err
		}
		n.met.count(func(m *metrics) *telemetry.CounterVec { return m.publishes }, routeApplied)
		return eng.PublishContext(ctx, c)
	}
	if c.ID == "" {
		return 0, errors.New("broker: content needs an ID")
	}
	ctx, cancel := context.WithTimeout(ctx, n.cfg.ForwardTimeout)
	defer cancel()
	total := 0
	for _, p := range n.publishPartitions(c) {
		matched, err := n.publishPartition(ctx, p, c)
		if err != nil {
			return total, err
		}
		total += matched
	}
	return total, nil
}

// publishPartitions lists the distinct partitions a publish must
// reach: one per topic, or the page-ID partition when topic-less.
func (n *Node) publishPartitions(c broker.Content) []int {
	r := n.Ring()
	if len(c.Topics) == 0 {
		return []int{r.PartitionOf(c.ID)}
	}
	seen := make(map[int]struct{}, len(c.Topics))
	var out []int
	for _, t := range c.Topics {
		p := r.PartitionOf(t)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	return out
}

// publishPartition delivers one leg of a publish to the partition's
// current owner, re-resolving ownership and retrying while the owner
// is unreachable, rejecting as stale, or the partition is settling.
// This loop is the in-flight buffer the handoff protocol relies on.
func (n *Node) publishPartition(ctx context.Context, p int, c broker.Content) (int, error) {
	for attempt := 0; ; attempt++ {
		n.mu.Lock()
		ring := n.ring
		owner := ring.Owner(p)
		eng := n.parts[p]
		until := n.quarantine[p]
		n.mu.Unlock()

		var matched int
		var err error
		switch {
		case owner == n.cfg.NodeID && eng != nil:
			if wait := time.Until(until); wait > 0 {
				err = broker.StaleRingError("partition %d is settling locally", p)
				break
			}
			n.met.count(func(m *metrics) *telemetry.CounterVec { return m.publishes }, routeLocal)
			return eng.PublishContext(ctx, c)
		case owner == "" || owner == n.cfg.NodeID:
			err = broker.StaleRingError("partition %d has no resident owner yet", p)
		default:
			var l *memberLink
			l, err = n.link(owner)
			if err == nil {
				if err = l.allow(); err == nil {
					var cl *broker.Client
					cl, err = l.get(ctx)
					if err == nil {
						matched, err = cl.PublishPartition(ctx, p, c)
					}
					l.observe(err)
				}
			}
		}
		if err == nil {
			n.met.count(func(m *metrics) *telemetry.CounterVec { return m.publishes }, routeForwarded)
			return matched, nil
		}
		if broker.IsNotNewer(err) {
			// An earlier attempt landed before its response was lost:
			// the publish is applied, the ack just never arrived.
			return 0, nil
		}
		if !retryableForward(err) {
			return 0, err
		}
		if n.met != nil {
			n.met.publishRetries.Inc()
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("cluster: publish to partition %d not routable: %w (last: %v)", p, ctx.Err(), err)
		case <-n.stop:
			return 0, errors.New("cluster: node closed")
		case <-time.After(forwardBackoff(attempt)):
		}
	}
}

// forwardBackoff paces the publish retry loop: quick first retries to
// ride out a handoff, capped so a dead owner is re-probed a few times
// per detection interval.
func forwardBackoff(attempt int) time.Duration {
	d := 10 * time.Millisecond << uint(min(attempt, 5))
	if d > 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	return d
}

// retryableForward classifies forwarding failures worth re-routing: an
// open breaker's fail-fast (the peer may recover, or the ring may move
// the partition), stale-ring rejections, and an unreachable peer.
// Semantic broker rejections surface to the publisher.
func retryableForward(err error) bool {
	return errors.Is(err, errBreakerOpen) || broker.IsStaleRing(err) || peerUnreachable(err)
}

// --- Subscribe -------------------------------------------------------

// SubscribeContext routes a subscription. A partition-scoped forward
// registers directly in the local partition engine on behalf of a
// peer router; an edge subscription becomes an authoritative route
// entry bound to the owner of each topic's partition (every partition
// for keyword-only subscriptions) and is re-bound on ring changes.
func (n *Node) SubscribeContext(ctx context.Context, sub match.Subscription, notifier broker.Notifier) (int64, error) {
	if notifier == nil {
		return 0, errors.New("broker: nil notifier")
	}
	if rt, ok := broker.RouteFromContext(ctx); ok && rt.Partition >= 0 {
		return n.applyForwardedSubscribe(ctx, rt.Partition, sub, notifier)
	}

	n.mu.Lock()
	ring := n.ring
	n.nextID++
	id := n.nextID
	n.mu.Unlock()
	es := &edgeSub{
		id:       id,
		proxy:    sub.Proxy,
		topics:   append([]string(nil), sub.Topics...),
		keywords: append([]string(nil), sub.Keywords...),
		notifier: notifier,
		bindings: make(map[int]*subBinding),
	}
	for _, p := range subPartitions(ring, sub) {
		b, err := n.bindPartition(ctx, es, p, ring)
		if err != nil {
			n.unwindBindings(es)
			return 0, err
		}
		es.bindings[p] = b
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.unwindBindings(es)
		return 0, errors.New("cluster: node closed")
	}
	n.routes[id] = es
	ringNow := n.ring
	n.mu.Unlock()
	if ringNow.Version() != ring.Version() {
		// The ring moved while we were binding: re-check placement so
		// the ack below never covers a binding to a former owner.
		n.rebindRoute(es, ringNow)
	}
	return id, nil
}

// applyForwardedSubscribe registers a peer's partition-scoped
// subscription in the local engine, allocating a node-level ID the
// peer's link client will reference.
func (n *Node) applyForwardedSubscribe(ctx context.Context, p int, sub match.Subscription, notifier broker.Notifier) (int64, error) {
	eng, err := n.partitionEngine(p)
	if err != nil {
		return 0, err
	}
	n.mu.Lock()
	n.nextID++
	id := n.nextID
	n.mu.Unlock()
	localID, err := eng.SubscribeContext(ctx, sub, broker.Relabel(id, notifier))
	if err != nil {
		return 0, err
	}
	n.mu.Lock()
	n.applied[id] = appliedSub{partition: p, localID: localID}
	n.mu.Unlock()
	n.met.count(func(m *metrics) *telemetry.CounterVec { return m.subscribes }, routeApplied)
	return id, nil
}

// subPartitions lists the partitions a subscription must live on.
func subPartitions(r *Ring, sub match.Subscription) []int {
	if len(sub.Topics) == 0 {
		out := make([]int, r.Partitions())
		for p := range out {
			out[p] = p
		}
		return out
	}
	seen := make(map[int]struct{}, len(sub.Topics))
	var out []int
	for _, t := range sub.Topics {
		p := r.PartitionOf(t)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	return out
}

// partitionScoped projects an edge subscription onto one partition:
// only the topics that hash there (all keywords always apply).
func (es *edgeSub) partitionScoped(r *Ring, p int) match.Subscription {
	var topics []string
	for _, t := range es.topics {
		if r.PartitionOf(t) == p {
			topics = append(topics, t)
		}
	}
	return match.Subscription{
		Proxy:    es.proxy,
		Topics:   topics,
		Keywords: es.keywords,
	}
}

// bindPartition registers the subscription with partition p's owner,
// retrying through ownership churn until ctx (bounded by
// ForwardTimeout) expires.
func (n *Node) bindPartition(ctx context.Context, es *edgeSub, p int, ring *Ring) (*subBinding, error) {
	bctx, cancel := context.WithTimeout(ctx, n.cfg.ForwardTimeout)
	defer cancel()
	for attempt := 0; ; attempt++ {
		n.mu.Lock()
		cur := n.ring
		owner := cur.Owner(p)
		eng := n.parts[p]
		n.mu.Unlock()
		scoped := es.partitionScoped(cur, p)

		var b *subBinding
		var err error
		if owner == n.cfg.NodeID && eng != nil {
			var localID int64
			localID, err = eng.SubscribeContext(bctx, scoped, broker.Relabel(es.id, es.notifier))
			if err == nil {
				n.met.count(func(m *metrics) *telemetry.CounterVec { return m.subscribes }, routeLocal)
				b = &subBinding{partition: p, localID: localID}
			}
		} else if owner == "" || owner == n.cfg.NodeID {
			err = broker.StaleRingError("partition %d has no resident owner yet", p)
		} else {
			var l *memberLink
			l, err = n.link(owner)
			if err == nil {
				if err = l.allow(); err == nil {
					var cl *broker.Client
					cl, err = l.get(bctx)
					if err == nil {
						var linkID int64
						linkID, err = cl.SubscribePartition(bctx, p, scoped.Proxy, scoped.Topics, scoped.Keywords)
						if err == nil {
							l.track(linkID, es)
							n.met.count(func(m *metrics) *telemetry.CounterVec { return m.subscribes }, routeForwarded)
							b = &subBinding{partition: p, owner: owner, link: l, linkID: linkID}
						}
					}
					l.observe(err)
				}
			}
		}
		if err == nil {
			return b, nil
		}
		if !retryableForward(err) {
			return nil, err
		}
		select {
		case <-bctx.Done():
			return nil, fmt.Errorf("cluster: subscribe to partition %d not routable: %w (last: %v)", p, bctx.Err(), err)
		case <-n.stop:
			return nil, errors.New("cluster: node closed")
		case <-time.After(forwardBackoff(attempt)):
		}
	}
}

// dropBinding tears one binding down, best-effort: the target may be
// gone, which is fine — its registry died with it.
func (n *Node) dropBinding(b *subBinding) {
	if b == nil {
		return
	}
	if b.owner == "" {
		n.mu.Lock()
		eng := n.parts[b.partition]
		n.mu.Unlock()
		if eng != nil {
			_ = eng.Unsubscribe(b.localID)
		}
		return
	}
	b.link.untrack(b.linkID)
	n.mu.Lock()
	ownerAlive := n.alive[b.owner]
	n.mu.Unlock()
	if !ownerAlive {
		// The owner died; its registry died with it. Dialing it just
		// to unsubscribe would stall the rebalance.
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RequestTimeout)
	defer cancel()
	if cl, err := b.link.get(ctx); err == nil {
		_ = cl.Unsubscribe(ctx, b.linkID)
	}
}

// unwindBindings drops every binding of a partially-bound route.
func (n *Node) unwindBindings(es *edgeSub) {
	for _, p := range sortedPartitions(es.bindings) {
		n.dropBinding(es.bindings[p])
		delete(es.bindings, p)
	}
}

// Unsubscribe removes a subscription by the node-level ID handed out
// by SubscribeContext — an edge route (unbinding every partition) or
// a peer's applied forward.
func (n *Node) Unsubscribe(id int64) error {
	n.mu.Lock()
	if as, ok := n.applied[id]; ok {
		delete(n.applied, id)
		eng := n.parts[as.partition]
		n.mu.Unlock()
		if eng != nil {
			return eng.Unsubscribe(as.localID)
		}
		return nil
	}
	es, ok := n.routes[id]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: unknown subscription %d", id)
	}
	// Serialize with rebalances: bindings are only ever mutated under
	// rebalanceMu once a route is registered.
	n.rebalanceMu.Lock()
	defer n.rebalanceMu.Unlock()
	n.mu.Lock()
	delete(n.routes, id)
	n.mu.Unlock()
	n.unwindBindings(es)
	return nil
}

// --- Fetch -----------------------------------------------------------

// FetchContext serves a page fetch. A partition-scoped forward reads
// the local partition store; an edge fetch probes the page-ID
// partition's owner first (where topic-less publishes land), then the
// remaining partitions — content lives wherever the page's topics
// hash, which the page ID alone does not reveal.
func (n *Node) FetchContext(ctx context.Context, pageID string) (broker.Content, error) {
	if rt, ok := broker.RouteFromContext(ctx); ok && rt.Partition >= 0 {
		eng, err := n.partitionEngine(rt.Partition)
		if err != nil {
			return broker.Content{}, err
		}
		return eng.FetchContext(ctx, pageID)
	}
	ring := n.Ring()
	order := make([]int, 0, ring.Partitions())
	first := ring.PartitionOf(pageID)
	order = append(order, first)
	for p := 0; p < ring.Partitions(); p++ {
		if p != first {
			order = append(order, p)
		}
	}
	var lastErr error = fmt.Errorf("%w: %q", broker.ErrUnknownPage, pageID)
	for _, p := range order {
		n.mu.Lock()
		owner := n.ring.Owner(p)
		eng := n.parts[p]
		n.mu.Unlock()
		var c broker.Content
		var err error
		if owner == n.cfg.NodeID && eng != nil {
			c, err = eng.FetchContext(ctx, pageID)
		} else if owner == "" || owner == n.cfg.NodeID {
			continue
		} else {
			if n.met != nil {
				n.met.fetchProbes.Inc()
			}
			l, lerr := n.link(owner)
			if lerr != nil {
				lastErr = lerr
				continue
			}
			if lerr := l.allow(); lerr != nil {
				lastErr = lerr
				continue
			}
			cl, cerr := l.get(ctx)
			if cerr != nil {
				l.observe(cerr)
				lastErr = cerr
				continue
			}
			c, err = cl.FetchPartition(ctx, p, pageID)
			l.observe(err)
		}
		if err == nil {
			return c, nil
		}
		if !errors.Is(err, broker.ErrUnknownPage) && !strings.Contains(err.Error(), "unknown page") {
			lastErr = err
		}
		if ctx.Err() != nil {
			return broker.Content{}, ctx.Err()
		}
	}
	return broker.Content{}, lastErr
}
