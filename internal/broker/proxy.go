package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"pubsubcd/internal/core"
	"pubsubcd/internal/telemetry"
)

// Fetcher fetches the current content of a page. *Broker satisfies it
// (in-process origin); Client.Fetcher adapts the resilient TCP client
// to it, so a proxy can fetch across a real network.
type Fetcher interface {
	Fetch(pageID string) (Content, error)
}

// ContextFetcher is an optional extension of Fetcher for
// implementations that can carry the caller's context (and trace)
// through the fetch. *Broker satisfies it.
type ContextFetcher interface {
	Fetcher
	FetchContext(ctx context.Context, pageID string) (Content, error)
}

// fetchVia dispatches through FetchContext when available.
func fetchVia(ctx context.Context, f Fetcher, pageID string) (Content, error) {
	if cf, ok := f.(ContextFetcher); ok {
		return cf.FetchContext(ctx, pageID)
	}
	return f.Fetch(pageID)
}

// Proxy is a content-distribution proxy server: it aggregates its users'
// subscriptions, caches page content under a core.Strategy, receives
// pushes from the broker and serves local requests, fetching from the
// origin on misses.
//
// The proxy degrades gracefully when its fetch path fails (§2 puts
// proxies on the far side of a real network): a request for a page with
// a stale cached copy is served stale rather than failing, and counted
// in ProxyStats. A miss with the fetch path down fails.
type Proxy struct {
	id      int
	broker  *Broker
	cost    float64
	fetcher Fetcher // defaults to broker

	mu       sync.Mutex
	strategy core.Strategy
	ids      map[string]int // page ID → the strategy's dense page index
	bodies   map[string][]byte
	versions map[string]int
	latest   map[string]int
	subs     map[string]int

	stats ProxyStats
}

// ProxyStats counts a proxy's traffic.
type ProxyStats struct {
	Requests     int64
	Hits         int64
	PushesSeen   int64
	PushesStored int64
	Fetches      int64
	// FetchErrors counts fetch-path failures.
	FetchErrors int64
	// DegradedStale counts requests served from a stale cached copy
	// because the fetch path was down.
	DegradedStale int64
}

// proxyConfig collects option state for NewProxy.
type proxyConfig struct {
	fetcher Fetcher
}

// ProxyOption configures a Proxy.
type ProxyOption func(*proxyConfig)

// WithProxyFetcher routes the proxy's fetch path through f instead of
// the attached broker — e.g. a resilient TCP client's Fetcher, so
// fetches cross a real (failable) network.
func WithProxyFetcher(f Fetcher) ProxyOption {
	return func(c *proxyConfig) { c.fetcher = f }
}

// NewProxy builds a proxy with the given placement strategy and attaches
// it to the broker. cost is the proxy's fetch cost c(p) from the origin.
func NewProxy(id int, b *Broker, strategy core.Strategy, cost float64, opts ...ProxyOption) (*Proxy, error) {
	if b == nil {
		return nil, errors.New("broker: nil broker")
	}
	if strategy == nil {
		return nil, errors.New("broker: nil strategy")
	}
	if cost <= 0 {
		return nil, fmt.Errorf("broker: fetch cost must be positive, got %g", cost)
	}
	var cfg proxyConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	p := &Proxy{
		id:       id,
		broker:   b,
		cost:     cost,
		fetcher:  cfg.fetcher,
		strategy: strategy,
		ids:      make(map[string]int),
		bodies:   make(map[string][]byte),
		versions: make(map[string]int),
		latest:   make(map[string]int),
		subs:     make(map[string]int),
	}
	if p.fetcher == nil {
		p.fetcher = b
	}
	if err := b.AttachProxy(id, p); err != nil {
		return nil, err
	}
	return p, nil
}

var _ PushSink = (*Proxy)(nil)
var _ ContextPushSink = (*Proxy)(nil)
var _ Fetcher = (*Broker)(nil)
var _ ContextFetcher = (*Broker)(nil)

// ID returns the proxy identifier.
func (p *Proxy) ID() int { return p.id }

// Push implements PushSink: the content distribution engine offers a
// freshly published page that matched `matched` local subscriptions.
func (p *Proxy) Push(c Content, matched int) {
	p.PushContext(context.Background(), c, matched)
}

// PushContext implements ContextPushSink: the placement decision is
// recorded as a span in the trace active in ctx — typically a child of the broker.push span of the
// publish that triggered it.
func (p *Proxy) PushContext(ctx context.Context, c Content, matched int) {
	_, sp := telemetry.StartSpan(ctx, "proxy.push")
	if sp != nil {
		sp.SetAttrInt("proxy", int64(p.id))
		sp.SetAttr("page", c.ID)
		defer sp.End()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.PushesSeen++
	p.subs[c.ID] = matched
	p.observeVersion(c.ID, c.Version)
	meta := core.PageMeta{ID: p.pageIndex(c.ID), Size: bodySize(c.Body), Cost: p.cost}
	if stored := p.strategy.Push(meta, c.Version, p.subs[c.ID]); stored {
		p.stats.PushesStored++
		p.bodies[c.ID] = c.Body
		p.versions[c.ID] = c.Version
		sp.SetAttr("stored", "true")
	} else {
		p.evictLocked(c.ID)
		sp.SetAttr("stored", "false")
	}
}

// evictLocked drops a page's body from the cache. Caller holds p.mu.
func (p *Proxy) evictLocked(pageID string) {
	delete(p.bodies, pageID)
	delete(p.versions, pageID)
}

// fetch runs the fetch path and falls through the degradation ladder
// on failure: serve the stale cached copy when one exists, else fail.
// Caller holds p.mu. A stale serve is annotated on the active span in
// ctx (degraded=stale).
func (p *Proxy) fetch(ctx context.Context, pageID string, staleBody []byte, haveStale bool) (Content, bool, error) {
	current, err := fetchVia(ctx, p.fetcher, pageID)
	if err == nil {
		return current, false, nil
	}
	p.stats.FetchErrors++
	if haveStale {
		p.stats.DegradedStale++
		telemetry.SpanFromContext(ctx).SetAttr("degraded", "stale")
		return Content{ID: pageID, Version: p.versions[pageID], Body: staleBody}, true, nil
	}
	return Content{}, false, err
}

// Request serves a local user's request for a page: from the cache when
// the strategy reports a fresh hit, from the origin otherwise. Freshness
// is judged against the newest version the proxy has learned about
// through pushes and fetches — like a real proxy, it has no invalidation
// signal for pages its users never subscribed to.
func (p *Proxy) Request(pageID string) ([]byte, error) {
	return p.RequestContext(context.Background(), pageID)
}

// RequestContext is Request with a caller context. The serve is
// recorded as a proxy.request span in any trace active in ctx, with
// an outcome attribute (hit, stale_refresh, miss) and a degradation
// attribute when the fetch path was down.
func (p *Proxy) RequestContext(ctx context.Context, pageID string) (body []byte, err error) {
	ctx, sp := telemetry.StartSpan(ctx, "proxy.request")
	if sp != nil {
		sp.SetAttrInt("proxy", int64(p.id))
		sp.SetAttr("page", pageID)
		defer func() {
			sp.SetError(err)
			sp.End()
		}()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Requests++

	if body, ok := p.bodies[pageID]; ok {
		meta := core.PageMeta{ID: p.pageIndex(pageID), Size: bodySize(body), Cost: p.cost}
		hit, stored := p.strategy.Request(meta, p.latest[pageID], p.subs[pageID])
		if hit && p.versions[pageID] >= p.latest[pageID] {
			p.stats.Hits++
			sp.SetAttr("outcome", "hit")
			return body, nil
		}
		// Stale copy: refetch and, when the strategy keeps the page,
		// refresh the stored body. If the fetch path is down, degrade
		// to the stale copy rather than failing the user.
		sp.SetAttr("outcome", "stale_refresh")
		current, degraded, err := p.fetch(ctx, pageID, body, true)
		if err != nil {
			return nil, err
		}
		if degraded {
			return current.Body, nil
		}
		p.observeVersion(pageID, current.Version)
		p.stats.Fetches++
		if stored {
			p.bodies[pageID] = current.Body
			p.versions[pageID] = current.Version
		} else {
			p.evictLocked(pageID)
		}
		return current.Body, nil
	}

	sp.SetAttr("outcome", "miss")
	current, degraded, err := p.fetch(ctx, pageID, nil, false)
	if err != nil {
		return nil, err
	}
	if degraded {
		return current.Body, nil
	}
	p.observeVersion(pageID, current.Version)
	meta := core.PageMeta{ID: p.pageIndex(pageID), Size: bodySize(current.Body), Cost: p.cost}
	_, stored := p.strategy.Request(meta, current.Version, p.subs[pageID])
	p.stats.Fetches++
	if stored {
		p.bodies[pageID] = current.Body
		p.versions[pageID] = current.Version
	}
	return current.Body, nil
}

func (p *Proxy) observeVersion(pageID string, version int) {
	if version > p.latest[pageID] {
		p.latest[pageID] = version
	}
}

// Stats returns a copy of the proxy's counters.
func (p *Proxy) Stats() ProxyStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// HitRatio returns the proxy's local hit ratio.
func (p *Proxy) HitRatio() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stats.Requests == 0 {
		return 0
	}
	return float64(p.stats.Hits) / float64(p.stats.Requests)
}

// Close detaches the proxy from the broker. Idempotent.
func (p *Proxy) Close() error {
	p.broker.DetachProxy(p.id)
	return nil
}

// pageIndex maps a string page ID to the dense index the strategy layer
// keys pages by (core.PageMeta.ID), numbering pages 0, 1, 2, ... in the
// order the proxy first sees them. Like latest and subs, the table grows
// with every page seen. Caller holds p.mu.
func (p *Proxy) pageIndex(pageID string) int {
	id, ok := p.ids[pageID]
	if !ok {
		id = len(p.ids)
		p.ids[pageID] = id
	}
	return id
}

func bodySize(body []byte) int64 {
	if len(body) == 0 {
		return 1 // zero-size pages are not cacheable entities
	}
	return int64(len(body))
}
