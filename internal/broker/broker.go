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
	"sync"
	"sync/atomic"
	"time"

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
type Broker struct {
	engine *match.Engine

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

	mu      sync.RWMutex
	store   map[string]Content
	targets map[int64]Target // resolved at subscribe; see fanout.go
	sinks   map[int]PushSink
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
// reuses across publishes — matched refs and the fan-out's runs — so a
// steady stream of publishes allocates nothing for matching or
// delivery.
type fanoutScratch struct {
	refs []match.MatchRef
	fan  Fanout
}

var fanoutPool = sync.Pool{New: func() any { return new(fanoutScratch) }}

// New returns an empty broker.
func New() *Broker {
	return &Broker{
		engine:  match.NewEngine(),
		store:   make(map[string]Content),
		targets: make(map[int64]Target),
		sinks:   make(map[int]PushSink),
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
	id, err := b.engine.Subscribe(sub)
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
	t := ResolveTarget(n, id)
	b.mu.Lock()
	b.targets[id] = t
	b.mu.Unlock()
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
	b.mu.Lock()
	delete(b.targets, id)
	b.mu.Unlock()
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
	if _, dup := b.sinks[proxy]; dup {
		return fmt.Errorf("broker: proxy %d already attached", proxy)
	}
	b.sinks[proxy] = sink
	return nil
}

// DetachProxy removes a proxy's push sink.
func (b *Broker) DetachProxy(proxy int) {
	b.mu.Lock()
	delete(b.sinks, proxy)
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
	fs.refs = b.engine.AppendMatchRefs(fs.refs[:0], ev)
	matched := fs.refs
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

	// Resolve each matched subscription's target under one read-lock
	// (the fan-out groups them into one run per connection), then
	// deliver outside it. The per-proxy breakdown is only materialized
	// when push sinks consume it.
	b.mu.RLock()
	var perProxy map[int]int
	if len(b.sinks) > 0 {
		perProxy = make(map[int]int, 8)
	}
	fs.fan.reserve(len(matched))
	for _, sub := range matched {
		if t, ok := b.targets[sub.ID]; ok {
			fs.fan.Add(t)
		}
		if perProxy != nil {
			perProxy[sub.Proxy]++
		}
	}
	var sinks map[int]PushSink
	if len(b.sinks) > 0 {
		sinks = make(map[int]PushSink, len(perProxy))
		for proxy := range perProxy {
			if s, ok := b.sinks[proxy]; ok {
				sinks[proxy] = s
			}
		}
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
	for proxy, sink := range sinks {
		pctx, psp := telemetry.StartSpan(ctx, "broker.push")
		if psp != nil {
			psp.SetAttrInt("proxy", int64(proxy))
			psp.SetAttrInt("matched", int64(perProxy[proxy]))
		}
		push(pctx, sink, c, perProxy[proxy])
		psp.End()
		if bt != nil {
			bt.pushes.Inc()
		}
	}
	if bt != nil {
		elapsed := time.Since(start)
		bt.pushFanout.Observe(int64(len(sinks)))
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
