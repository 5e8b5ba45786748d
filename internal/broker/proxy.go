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
// to it, so a proxy can fetch across a real network. A proxy always
// calls FetchContext, whose context carries the request's deadline and
// trace; Fetch is the same call without a context.
type Fetcher interface {
	Fetch(pageID string) (Content, error)
	FetchContext(ctx context.Context, pageID string) (Content, error)
}

// ContextFetcher is Fetcher under its former name. It remains only
// because the benchmark module (perfbench) names it and calls the
// plain Fetch through it; a change to that module can drop both this
// alias and Fetcher.Fetch.
type ContextFetcher = Fetcher

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
	// evictions is the strategy's eviction report, nil when it has
	// none: the proxy then drops a body when a call on that page does
	// not store it. With a report, a declined push leaves the body to
	// the report.
	evictions core.EvictionReporter
	ids       map[string]int // page ID → the strategy's dense page index
	pages     []proxyPage    // indexed by the dense page index

	stats ProxyStats
}

// proxyPage is what a proxy knows about one page it has seen. Like ids,
// the records grow with every page seen and are never dropped. The body
// is held only while the strategy holds the page: when a strategy call
// evicts the page, the proxy drops the body (dropEvicted), so a proxy
// holds the bytes its strategy's Used reports, and the next request
// for the page takes the miss branch: fetch first, then tell the
// strategy the fetched version.
type proxyPage struct {
	body    []byte
	held    bool // body holds a copy, at version: a request takes the refresh branch
	version int
	latest  int // newest version learned through pushes and fetches
	subs    int // matched subscriptions of the last push
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
	}
	p.evictions, _ = strategy.(core.EvictionReporter)
	if p.fetcher == nil {
		p.fetcher = b
	}
	if err := b.AttachProxy(id, p); err != nil {
		return nil, err
	}
	return p, nil
}

var _ PushSink = (*Proxy)(nil)
var _ Fetcher = (*Broker)(nil)

// ID returns the proxy identifier.
func (p *Proxy) ID() int { return p.id }

// Push is PushContext without a context: it offers a freshly published
// page that matched `matched` local subscriptions.
func (p *Proxy) Push(c Content, matched int) {
	p.PushContext(context.Background(), c, matched)
}

// PushContext implements PushSink: the placement decision is
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
	idx := p.pageIndex(c.ID)
	pg := &p.pages[idx]
	pg.subs = matched
	pg.observe(c.Version)
	meta := core.PageMeta{ID: idx, Size: bodySize(c.Body), Cost: p.cost}
	stored := p.strategy.Push(meta, c.Version, matched)
	p.dropEvicted()
	if stored {
		p.stats.PushesStored++
		pg.store(c)
		sp.SetAttr("stored", "true")
		return
	}
	// A rejected push leaves a page the strategy still holds in place
	// (GD* declines every push and keeps the page until a request
	// refreshes it): only an eviction report says the page is gone.
	if p.evictions == nil {
		pg.evict()
	}
	sp.SetAttr("stored", "false")
}

// store keeps c's body as the page's cached copy.
func (pg *proxyPage) store(c Content) {
	pg.body, pg.held, pg.version = c.Body, true, c.Version
}

// evict drops the page's cached copy: the next request takes the miss
// branch.
func (pg *proxyPage) evict() {
	pg.body, pg.held, pg.version = nil, false, 0
}

// dropEvicted drops the bodies of the pages the strategy's last call
// evicted. Caller holds p.mu.
func (p *Proxy) dropEvicted() {
	if p.evictions == nil {
		return
	}
	for _, idx := range p.evictions.Evicted() {
		p.pages[idx].evict()
	}
}

func (pg *proxyPage) observe(version int) {
	if version > pg.latest {
		pg.latest = version
	}
}

// fetch runs the fetch path and falls through the degradation ladder
// on failure: serve the stale cached copy when the proxy holds one,
// else fail.
// Caller holds p.mu. A stale serve is annotated on the active span in
// ctx (degraded=stale) and returns only the stale body.
func (p *Proxy) fetch(ctx context.Context, pageID string, staleBody []byte, haveStale bool) (Content, bool, error) {
	current, err := p.fetcher.FetchContext(ctx, pageID)
	if err == nil {
		return current, false, nil
	}
	p.stats.FetchErrors++
	if haveStale {
		p.stats.DegradedStale++
		telemetry.SpanFromContext(ctx).SetAttr("degraded", "stale")
		return Content{ID: pageID, Body: staleBody}, true, nil
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

	idx, known := p.ids[pageID]
	if known && p.pages[idx].held {
		pg := &p.pages[idx]
		body := pg.body
		meta := core.PageMeta{ID: idx, Size: bodySize(body), Cost: p.cost}
		hit, stored := p.strategy.Request(meta, pg.latest, pg.subs)
		fresh := hit && pg.version >= pg.latest
		// After a hit too: DC-FP's move can drop the page it served.
		p.dropEvicted()
		if fresh {
			p.stats.Hits++
			sp.SetAttr("outcome", "hit")
			return body, nil
		}
		// Stale copy, or one the strategy does not keep: refetch and,
		// when the strategy keeps the page, refresh the stored body. If
		// the fetch path is down, degrade to the stale copy if the proxy
		// still holds it rather than failing the user.
		sp.SetAttr("outcome", "stale_refresh")
		current, degraded, err := p.fetch(ctx, pageID, pg.body, pg.held)
		if err != nil {
			return nil, err
		}
		if degraded {
			return current.Body, nil
		}
		pg.observe(current.Version)
		p.stats.Fetches++
		if stored {
			pg.store(current)
		} else {
			pg.evict()
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
	idx = p.pageIndex(pageID)
	pg := &p.pages[idx]
	pg.observe(current.Version)
	meta := core.PageMeta{ID: idx, Size: bodySize(current.Body), Cost: p.cost}
	_, stored := p.strategy.Request(meta, current.Version, pg.subs)
	p.dropEvicted()
	p.stats.Fetches++
	if stored {
		pg.store(current)
	}
	return current.Body, nil
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
// keys pages by (core.PageMeta.ID) and p.pages is indexed by, numbering
// pages 0, 1, 2, ... in the order the proxy first pushes or fetches
// them. Caller holds p.mu.
func (p *Proxy) pageIndex(pageID string) int {
	if id, ok := p.ids[pageID]; ok {
		return id
	}
	id := len(p.pages)
	p.ids[pageID] = id
	p.pages = append(p.pages, proxyPage{})
	return id
}

func bodySize(body []byte) int64 {
	if len(body) == 0 {
		return 1 // zero-size pages are not cacheable entities
	}
	return int64(len(body))
}
