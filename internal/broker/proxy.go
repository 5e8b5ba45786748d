package broker

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"pubsubcd/internal/core"
	"pubsubcd/internal/journal"
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
// a stale cached copy is served stale rather than failing, and a miss
// falls back to the origin fetcher when one is configured. Both
// degraded paths are counted in ProxyStats and, when telemetry is
// attached, in the metrics registry.
type Proxy struct {
	id      int
	broker  *Broker
	cost    float64
	fetcher Fetcher // primary fetch path; defaults to broker
	origin  Fetcher // fallback when the primary path fails; may be nil
	metrics *proxyMetrics

	// jnl is the cache-metadata journal; nil for a non-durable proxy.
	// See durability.go.
	jnl          *journal.Journal
	snapStop     chan struct{}
	snapDone     chan struct{}
	snapStopOnce sync.Once
	closeOnce    sync.Once
	closeErr     error

	mu       sync.Mutex
	strategy core.Strategy
	bodies   map[string][]byte
	versions map[string]int
	latest   map[string]int
	subs     map[string]int
	// warm holds pages whose placement was restored from the journal
	// but whose body has not been refetched yet (page → journaled size).
	warm map[string]int64

	stats ProxyStats
}

// ProxyStats counts a proxy's traffic.
type ProxyStats struct {
	Requests     int64
	Hits         int64
	PushesSeen   int64
	PushesStored int64
	Fetches      int64
	// FetchErrors counts primary fetch-path failures.
	FetchErrors int64
	// DegradedStale counts requests served from a stale cached copy
	// because the fetch path was down.
	DegradedStale int64
	// OriginFallbacks counts requests served through the fallback
	// origin fetcher.
	OriginFallbacks int64
	// WarmRestored counts placements recovered from the journal at
	// startup.
	WarmRestored int64
	// WarmRefills counts lazy body refetches for recovered placements.
	WarmRefills int64
	// JournalErrors counts cache-metadata journal appends that failed;
	// the proxy keeps serving, durability degrades.
	JournalErrors int64
}

// proxyMetrics are the proxy's degradation counters; nil when off.
// They are labeled series (proxy.<what>{proxy="<id>"}); the old
// unlabeled proxy<id>.<what> aliases have been removed.
type proxyMetrics struct {
	fetchErrors     *telemetry.Counter
	degradedStale   *telemetry.Counter
	originFallbacks *telemetry.Counter
}

// proxyConfig collects option state for NewProxy.
type proxyConfig struct {
	fetcher   Fetcher
	origin    Fetcher
	telemetry *telemetry.Registry

	// Durability knobs; see durability.go.
	dataDir          string
	fsync            journal.FsyncPolicy
	snapshotInterval time.Duration
}

// ProxyOption configures a Proxy.
type ProxyOption func(*proxyConfig)

// WithProxyFetcher routes the proxy's fetch path through f instead of
// the attached broker — e.g. a resilient TCP client's Fetcher, so
// fetches cross a real (failable) network.
func WithProxyFetcher(f Fetcher) ProxyOption {
	return func(c *proxyConfig) { c.fetcher = f }
}

// WithProxyOrigin installs a fallback origin: when the primary fetch
// path fails and no cached copy exists, the proxy fetches from f
// instead of failing the request.
func WithProxyOrigin(f Fetcher) ProxyOption {
	return func(c *proxyConfig) { c.origin = f }
}

// WithProxyTelemetry counts the proxy's degraded serves
// (proxy.degraded_stale, proxy.origin_fallbacks, proxy.fetch_errors)
// in reg.
func WithProxyTelemetry(reg *telemetry.Registry) ProxyOption {
	return func(c *proxyConfig) { c.telemetry = reg }
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
		origin:   cfg.origin,
		strategy: strategy,
		bodies:   make(map[string][]byte),
		versions: make(map[string]int),
		latest:   make(map[string]int),
		subs:     make(map[string]int),
		warm:     make(map[string]int64),
	}
	if p.fetcher == nil {
		p.fetcher = b
	}
	if reg := cfg.telemetry; reg != nil {
		proxyLabel := strconv.Itoa(id)
		counter := func(what string) *telemetry.Counter {
			return reg.CounterVec("proxy."+what, "proxy").With(proxyLabel)
		}
		p.metrics = &proxyMetrics{
			fetchErrors:     counter("fetch_errors"),
			degradedStale:   counter("degraded_stale"),
			originFallbacks: counter("origin_fallbacks"),
		}
	}
	if cfg.dataDir != "" {
		if err := p.openProxyJournal(&cfg); err != nil {
			return nil, err
		}
	}
	if err := b.AttachProxy(id, p); err != nil {
		if p.jnl != nil {
			p.stopSnapshotLoop()
			_ = p.jnl.Close()
		}
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

// PushContext implements ContextPushSink: the placement decision (and
// any journal write it causes) is recorded as a span in the trace
// active in ctx — typically a child of the broker.push span of the
// publish that triggered it.
func (p *Proxy) PushContext(ctx context.Context, c Content, matched int) {
	ctx, sp := telemetry.StartSpan(ctx, "proxy.push")
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
	meta := core.PageMeta{ID: p.numericID(c.ID), Size: bodySize(c.Body), Cost: p.cost}
	if stored := p.strategy.Push(meta, c.Version, p.subs[c.ID]); stored {
		p.stats.PushesStored++
		p.bodies[c.ID] = c.Body
		p.versions[c.ID] = c.Version
		delete(p.warm, c.ID) // the push body supersedes a pending refill
		p.journalAdmit(ctx, c.ID, c.Version, bodySize(c.Body), p.subs[c.ID])
		sp.SetAttr("stored", "true")
	} else {
		p.evictLocked(ctx, c.ID)
		sp.SetAttr("stored", "false")
	}
}

// evictLocked drops a page from the cache, journaling the eviction
// only when the page was actually resident. Caller holds p.mu.
func (p *Proxy) evictLocked(ctx context.Context, pageID string) {
	_, hadBody := p.bodies[pageID]
	_, wasWarm := p.warm[pageID]
	delete(p.bodies, pageID)
	delete(p.versions, pageID)
	delete(p.warm, pageID)
	if hadBody || wasWarm {
		p.journalEvict(ctx, pageID)
	}
}

// fetch runs the primary fetch path and falls through the degradation
// ladder on failure: serve the stale cached copy when one exists, then
// the fallback origin. Caller holds p.mu. The degraded outcome is
// annotated on the active span in ctx (degraded=stale|origin).
func (p *Proxy) fetch(ctx context.Context, pageID string, staleBody []byte, haveStale bool) (Content, bool, error) {
	sp := telemetry.SpanFromContext(ctx)
	current, err := fetchVia(ctx, p.fetcher, pageID)
	if err == nil {
		return current, false, nil
	}
	p.stats.FetchErrors++
	if p.metrics != nil {
		p.metrics.fetchErrors.Inc()
	}
	if haveStale {
		p.stats.DegradedStale++
		if p.metrics != nil {
			p.metrics.degradedStale.Inc()
		}
		sp.SetAttr("degraded", "stale")
		return Content{ID: pageID, Version: p.versions[pageID], Body: staleBody}, true, nil
	}
	if p.origin != nil {
		current, oerr := fetchVia(ctx, p.origin, pageID)
		if oerr == nil {
			p.stats.OriginFallbacks++
			if p.metrics != nil {
				p.metrics.originFallbacks.Inc()
			}
			sp.SetAttr("degraded", "origin")
			return current, false, nil
		}
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
// an outcome attribute (hit, stale_refresh, warm_refill, miss) and
// degradation attributes when the fetch path was down.
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
		meta := core.PageMeta{ID: p.numericID(pageID), Size: bodySize(body), Cost: p.cost}
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
			p.journalAdmit(ctx, pageID, current.Version, bodySize(current.Body), p.subs[pageID])
		} else {
			p.evictLocked(ctx, pageID)
		}
		return current.Body, nil
	}

	if _, warm := p.warm[pageID]; warm {
		sp.SetAttr("outcome", "warm_refill")
		return p.refillWarm(ctx, pageID)
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
	meta := core.PageMeta{ID: p.numericID(pageID), Size: bodySize(current.Body), Cost: p.cost}
	_, stored := p.strategy.Request(meta, current.Version, p.subs[pageID])
	p.stats.Fetches++
	if stored {
		p.bodies[pageID] = current.Body
		p.versions[pageID] = current.Version
		p.journalAdmit(ctx, pageID, current.Version, bodySize(current.Body), p.subs[pageID])
	}
	return current.Body, nil
}

// refillWarm serves a request for a page whose placement survived a
// restart but whose body is still pending: fetch the current content,
// and when the strategy keeps the page, fill the cache. A failed
// fetch leaves the warm placement intact — a transient outage should
// not cost a recovered slot. Caller holds p.mu.
func (p *Proxy) refillWarm(ctx context.Context, pageID string) ([]byte, error) {
	size := p.warm[pageID]
	meta := core.PageMeta{ID: p.numericID(pageID), Size: size, Cost: p.cost}
	_, stored := p.strategy.Request(meta, p.latest[pageID], p.subs[pageID])
	current, degraded, err := p.fetch(ctx, pageID, nil, false)
	if err != nil {
		return nil, err
	}
	if degraded {
		return current.Body, nil
	}
	p.observeVersion(pageID, current.Version)
	p.stats.Fetches++
	p.stats.WarmRefills++
	if stored {
		p.bodies[pageID] = current.Body
		p.versions[pageID] = current.Version
		delete(p.warm, pageID)
		p.journalAdmit(ctx, pageID, current.Version, bodySize(current.Body), p.subs[pageID])
	} else {
		p.evictLocked(ctx, pageID)
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

// Close detaches the proxy from the broker and, when durable, writes
// a final checkpoint and closes the journal. Idempotent.
func (p *Proxy) Close() error {
	p.broker.DetachProxy(p.id)
	if p.jnl == nil {
		return nil
	}
	p.closeOnce.Do(func() {
		p.stopSnapshotLoop()
		err := p.Checkpoint()
		if cerr := p.jnl.Close(); err == nil {
			err = cerr
		}
		p.closeErr = err
	})
	return p.closeErr
}

// numericID maps a string page ID to the integer ID space the strategy
// layer uses, via FNV-1a.
func (p *Proxy) numericID(pageID string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(pageID))
	return int(h.Sum64() & 0x7fffffff)
}

func bodySize(body []byte) int64 {
	if len(body) == 0 {
		return 1 // zero-size pages are not cacheable entities
	}
	return int64(len(body))
}
