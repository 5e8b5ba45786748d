// Package broker implements the publish/subscribe system of the paper's
// Fig. 1 as a working component: publishers publish content into the
// broker, the matching engine finds the subscriptions each event matches,
// notifications flow to subscribers, and the content distribution engine
// pushes page content toward the proxies whose users subscribed.
//
// The package provides an in-process broker plus a line-delimited-JSON
// TCP transport (see transport.go), so the library's strategies can be
// exercised end-to-end outside the simulator.
package broker

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pubsubcd/internal/idtable"
	"pubsubcd/internal/journal"
	"pubsubcd/internal/match"
	"pubsubcd/internal/telemetry"
)

// Content is a published page at a specific version.
type Content struct {
	// ID identifies the page.
	ID string
	// Version is the content version, starting at 0.
	Version int
	// Topics and Keywords drive matching.
	Topics   []string
	Keywords []string
	// Body is the page payload.
	Body []byte
}

// Notification announces a published page to a subscriber. It carries
// metadata only — the paper's notification lists carry titles/links, not
// content (§1).
type Notification struct {
	PageID  string `json:"pageId"`
	Version int    `json:"version"`
	Size    int64  `json:"size"`
	// SubscriptionID identifies the matched subscription.
	SubscriptionID int64 `json:"subscriptionId"`

	// ingress is the originating publish's ingress instant on this
	// process's monotonic clock: PublishContext stamps it, and a client
	// re-bases an upstream broker's elapsed PublishedAt onto it, so a
	// relay hop accumulates the budget instead of resetting it. The
	// connection writer turns it into the notify frame's PublishedAt at
	// encode time, and the fan-out stage timers measure from it. It never
	// crosses the wire, so no timestamps of different machines are ever
	// compared. The zero time means "unknown".
	ingress time.Time
}

// Notifier receives notifications for a subscription. Implementations
// must be safe for concurrent use and must not block for long.
type Notifier interface {
	Notify(n Notification)
}

// NotifierFunc adapts a function to the Notifier interface.
type NotifierFunc func(n Notification)

// Notify implements Notifier.
func (f NotifierFunc) Notify(n Notification) { f(n) }

// ContextNotifier is an optional extension of Notifier: implementations
// that also carry the caller's context (and with it the active trace)
// receive it via NotifyContext. The broker prefers NotifyContext when a
// notifier implements it.
type ContextNotifier interface {
	Notifier
	NotifyContext(ctx context.Context, n Notification)
}

// PushSink receives pushed content for a proxy. The content distribution
// engine calls it when a published page matches subscriptions aggregated
// at the proxy.
type PushSink interface {
	// Push offers the content together with the number of local
	// subscriptions it matched.
	Push(c Content, matched int)
}

// ContextPushSink is an optional extension of PushSink that carries the
// publishing context, so a placement decision (and its journal write)
// nests inside the distributed trace of the publish that caused it.
type ContextPushSink interface {
	PushSink
	PushContext(ctx context.Context, c Content, matched int)
}

// notify dispatches through NotifyContext when available.
func notify(ctx context.Context, n Notifier, notif Notification) {
	if cn, ok := n.(ContextNotifier); ok {
		cn.NotifyContext(ctx, notif)
		return
	}
	n.Notify(notif)
}

// push dispatches through PushContext when available.
func push(ctx context.Context, s PushSink, c Content, matched int) {
	if cs, ok := s.(ContextPushSink); ok {
		cs.PushContext(ctx, c, matched)
		return
	}
	s.Push(c, matched)
}

// ErrUnknownPage is returned by Fetch for pages never published.
var ErrUnknownPage = errors.New("broker: unknown page")

// Broker is an in-process publish/subscribe broker with a content store.
// Its match engine is its only subscription registry: each subscription
// is stored there with its delivery Target, resolved once at subscribe
// (see fanout.go), so a match yields the targets to notify directly.
type Broker struct {
	engine *match.Engine[Target]

	// tel holds the telemetry handles; nil until EnableTelemetry.
	// Atomic so telemetry can be attached while traffic is flowing.
	tel atomic.Pointer[brokerTelemetry]

	// jnl is the write-ahead journal; nil for an in-memory broker.
	// See durability.go. jmu serializes registry changes against
	// checkpoints: a record appended between Dump and the journal
	// truncation would be lost, so both paths hold jmu (lock order is
	// always jmu before the journal's internal mutex).
	jnl          *journal.Journal
	jmu          sync.Mutex
	snapStop     chan struct{}
	snapDone     chan struct{}
	snapStopOnce sync.Once
	closeOnce    sync.Once
	closeErr     error

	// sloBudgetNs is the publish-to-placement latency budget in
	// nanoseconds; 0 selects DefaultPublishSLO. Atomic so it can be
	// tuned while traffic flows.
	sloBudgetNs atomic.Int64

	mu    sync.RWMutex
	store map[string]Content
	sinks idtable.Table[PushSink] // attached proxies' sinks, keyed by proxy
}

// DefaultPublishSLO is the publish-to-placement latency budget used
// when none is configured: the time from Publish entry until every
// matching proxy has been offered the content.
const DefaultPublishSLO = 50 * time.Millisecond

// SetPublishSLO sets the publish-to-placement latency budget measured
// against the broker.slo.publish_to_placement.{hit,miss} counters.
// Non-positive restores the default.
func (b *Broker) SetPublishSLO(budget time.Duration) {
	if budget <= 0 {
		budget = 0
	}
	b.sloBudgetNs.Store(int64(budget))
}

// publishSLO returns the active budget.
func (b *Broker) publishSLO() time.Duration {
	if v := b.sloBudgetNs.Load(); v > 0 {
		return time.Duration(v)
	}
	return DefaultPublishSLO
}

// fanoutScratch is the per-publish working set the fan-out hot path
// reuses across publishes — matched aggregates and their members, the
// fan-out's runs and the per-proxy push counts — so a steady stream of
// publishes allocates nothing for matching, delivery or push placement.
type fanoutScratch struct {
	groups  []match.MatchGroup
	members []match.Member[Target] // the groups' members, group after group
	fan     Fanout
	hits    []int // matched subscriptions per entry of Broker.sinks
	pushes  []proxyPush
}

// proxyPush is one push of a publish: a proxy with a sink and the
// number of its subscriptions the content matched.
type proxyPush struct {
	proxy   int
	sink    PushSink
	matched int
}

var fanoutPool = sync.Pool{New: func() any { return new(fanoutScratch) }}

// New returns an empty broker.
func New() *Broker {
	return &Broker{
		engine: match.New[Target](),
		store:  make(map[string]Content),
	}
}

// Subscribe registers a subscription and its notifier, returning the
// subscription ID.
func (b *Broker) Subscribe(sub match.Subscription, n Notifier) (int64, error) {
	return b.SubscribeContext(context.Background(), sub, n)
}

// SubscribeContext is Subscribe with a caller context: the journal
// write (when the broker is durable) is recorded as a child span of any
// trace active in ctx.
func (b *Broker) SubscribeContext(ctx context.Context, sub match.Subscription, n Notifier) (int64, error) {
	if n == nil {
		return 0, errors.New("broker: nil notifier")
	}
	ctx, sp := telemetry.StartSpan(ctx, "broker.subscribe")
	if sp != nil {
		sp.SetAttrInt("proxy", int64(sub.Proxy))
		defer sp.End()
	}
	b.jmu.Lock()
	id, err := b.engine.SubscribeWith(sub, func(id int64) Target { return ResolveTarget(n, id) })
	if err != nil {
		b.jmu.Unlock()
		sp.SetError(err)
		return 0, err
	}
	if b.jnl != nil {
		stored := sub
		stored.ID = id
		if jerr := b.journalSubscribe(ctx, stored); jerr != nil {
			// Unwind so the accepted-but-not-durable window stays empty.
			_ = b.engine.Unsubscribe(id)
			b.jmu.Unlock()
			err := fmt.Errorf("broker: journal subscribe: %w", jerr)
			sp.SetError(err)
			return 0, err
		}
	}
	b.jmu.Unlock()
	if bt := b.telemetryHandles(); bt != nil {
		bt.subscribes.Inc()
		bt.liveSubs.Set(int64(b.engine.Len()))
	}
	return id, nil
}

// Unsubscribe removes a subscription.
func (b *Broker) Unsubscribe(id int64) error {
	b.jmu.Lock()
	if err := b.engine.Unsubscribe(id); err != nil {
		b.jmu.Unlock()
		return err
	}
	var jerr error
	if b.jnl != nil {
		jerr = b.journalUnsubscribe(id)
	}
	b.jmu.Unlock()
	if jerr != nil {
		// The engine change stands; report that durability is behind.
		return fmt.Errorf("broker: journal unsubscribe: %w", jerr)
	}
	if bt := b.telemetryHandles(); bt != nil {
		bt.unsubscribes.Inc()
		bt.liveSubs.Set(int64(b.engine.Len()))
	}
	return nil
}

// AttachProxy registers the push sink for a proxy. Pushes for matched
// content are delivered to it synchronously from Publish.
func (b *Broker) AttachProxy(proxy int, sink PushSink) error {
	if sink == nil {
		return errors.New("broker: nil push sink")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.sinks.Get(int64(proxy)); dup {
		return fmt.Errorf("broker: proxy %d already attached", proxy)
	}
	b.sinks.Set(int64(proxy), sink)
	return nil
}

// DetachProxy removes a proxy's push sink.
func (b *Broker) DetachProxy(proxy int) {
	b.mu.Lock()
	b.sinks.Delete(int64(proxy))
	b.mu.Unlock()
}

// Publish stores the content, notifies every matching subscriber, and
// pushes the content to each attached proxy with at least one matching
// subscription. It returns the number of matched subscriptions.
func (b *Broker) Publish(c Content) (int, error) {
	return b.PublishContext(context.Background(), c)
}

// PublishContext is Publish with a caller context. When ctx carries an
// active trace (or a span collector), the stages of the publish —
// matching, notification fan-out, push placement and any journal
// writes they cause — are recorded as child spans, and notifications
// and pushes delivered to context-aware receivers continue the trace.
func (b *Broker) PublishContext(ctx context.Context, c Content) (int, error) {
	bt := b.telemetryHandles()
	// The ingress instant is taken unconditionally: besides feeding the
	// latency metrics it rides the notification into the fan-out, where
	// the transport stamps each notify frame's PublishedAt field with the
	// elapsed time since this moment (see Notification.ingress).
	start := time.Now()
	ctx, sp := telemetry.StartSpan(ctx, "broker.publish")
	if sp != nil {
		sp.SetAttr("page", c.ID)
		sp.SetAttrInt("version", int64(c.Version))
		defer sp.End()
	}
	if c.ID == "" {
		if bt != nil {
			bt.publishErrors.Inc()
		}
		err := errors.New("broker: content needs an ID")
		sp.SetError(err)
		return 0, err
	}
	b.mu.Lock()
	if prev, ok := b.store[c.ID]; ok && c.Version <= prev.Version {
		b.mu.Unlock()
		if bt != nil {
			bt.publishErrors.Inc()
		}
		err := fmt.Errorf("broker: page %q version %d "+notNewerMarker+" %d", c.ID, c.Version, prev.Version)
		sp.SetError(err)
		return 0, err
	}
	b.store[c.ID] = c
	b.mu.Unlock()
	if bt != nil {
		bt.publishes.Inc()
		for _, topic := range c.Topics {
			bt.publishesByTopic.With(topic).Inc()
		}
	}

	ev := match.Event{ID: c.ID, Topics: c.Topics, Keywords: c.Keywords}
	var matchStart time.Time
	if bt != nil {
		matchStart = time.Now()
	}
	_, msp := telemetry.StartSpan(ctx, "broker.match")
	fs := fanoutPool.Get().(*fanoutScratch)
	defer fanoutPool.Put(fs)
	fs.groups, fs.members = b.engine.AppendMatchGroups(fs.groups[:0], fs.members[:0], ev)
	matched := fs.members
	if msp != nil {
		msp.SetAttrInt("matched", int64(len(matched)))
		msp.End()
	}
	if bt != nil {
		bt.matchNanos.Observe(sinceNanos(matchStart))
		bt.matchFanout.Observe(int64(len(matched)))
		// Stage timer: publish ingress through the end of matching, the
		// first segment of the delivery-latency budget.
		bt.stageMatch.Observe(sinceNanos(start))
	}

	// The fan-out groups the matched targets into one run per
	// connection. The per-proxy breakdown is only taken when push sinks
	// consume it.
	fs.fan.reserve(len(matched))
	for _, m := range matched {
		fs.fan.Add(m.Value)
	}
	clear(matched) // the pooled scratch keeps no targets
	b.mu.RLock()
	if b.sinks.Len() > 0 {
		b.collectPushes(fs)
	}
	b.mu.RUnlock()

	notified := fs.fan.Deliver(ctx, Notification{
		PageID:  c.ID,
		Version: c.Version,
		Size:    int64(len(c.Body)),
		ingress: start,
	})
	if bt != nil {
		bt.notifications.Add(int64(notified))
	}
	for _, p := range fs.pushes {
		pctx, psp := telemetry.StartSpan(ctx, "broker.push")
		if psp != nil {
			psp.SetAttrInt("proxy", int64(p.proxy))
			psp.SetAttrInt("matched", int64(p.matched))
		}
		push(pctx, p.sink, c, p.matched)
		psp.End()
		if bt != nil {
			bt.pushes.Inc()
		}
	}
	pushed := len(fs.pushes)
	clear(fs.pushes) // the pooled scratch keeps no sinks
	fs.pushes = fs.pushes[:0]
	if bt != nil {
		elapsed := time.Since(start)
		bt.pushFanout.Observe(int64(pushed))
		// The publish latency sample carries the trace ID as an
		// exemplar, so the OpenMetrics bucket it lands in links to the
		// retained span tree on /trace/{id}.
		bt.publishNanos.ObserveExemplar(elapsed.Nanoseconds(), sp.Context().TraceID)
		// The SLO clock covers publish entry through the last push
		// placement — the paper's freshness path: by now every proxy
		// with interested subscribers has been offered the page.
		if elapsed <= b.publishSLO() {
			bt.sloHits.Inc()
		} else {
			bt.sloMisses.Inc()
		}
	}
	return len(matched), nil
}

// collectPushes sets fs.pushes to one push per attached proxy with at
// least one subscription among the matched aggregates in fs.groups,
// ascending by proxy, its count the proxy's fS. Each aggregate finds
// its proxy in the sink table by binary search and adds its
// multiplicity into fs.hits, which is laid out in step with the table's
// entries. Callers hold b.mu.
func (b *Broker) collectPushes(fs *fanoutScratch) {
	slots := b.sinks.Slots()
	hits := slices.Grow(fs.hits[:0], slots)[:slots]
	clear(hits)
	for _, g := range fs.groups {
		if i, ok := b.sinks.Slot(int64(g.Proxy)); ok {
			hits[i] += g.N
		}
	}
	fs.pushes = fs.pushes[:0]
	for i, n := range hits {
		if n > 0 {
			proxy, sink, _ := b.sinks.At(i)
			fs.pushes = append(fs.pushes, proxyPush{proxy: int(proxy), sink: sink, matched: n})
		}
	}
	fs.hits = hits
}

// Fetch returns the current content of a page (the origin fetch a proxy
// performs on a cache miss).
func (b *Broker) Fetch(pageID string) (Content, error) {
	return b.FetchContext(context.Background(), pageID)
}

// FetchContext is Fetch with a caller context; the lookup is recorded
// as a span in any trace active in ctx.
func (b *Broker) FetchContext(ctx context.Context, pageID string) (Content, error) {
	bt := b.telemetryHandles()
	var start time.Time
	if bt != nil {
		start = time.Now()
		bt.fetches.Inc()
	}
	_, sp := telemetry.StartSpan(ctx, "broker.fetch")
	if sp != nil {
		sp.SetAttr("page", pageID)
		defer sp.End()
	}
	b.mu.RLock()
	c, ok := b.store[pageID]
	b.mu.RUnlock()
	if !ok {
		if bt != nil {
			bt.fetchMisses.Inc()
		}
		err := fmt.Errorf("%w: %q", ErrUnknownPage, pageID)
		sp.SetError(err)
		return Content{}, err
	}
	if bt != nil {
		bt.fetchNanos.ObserveExemplar(sinceNanos(start), sp.Context().TraceID)
	}
	return c, nil
}

// Subscriptions returns the number of live subscriptions.
func (b *Broker) Subscriptions() int { return b.engine.Len() }
