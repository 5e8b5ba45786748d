package broker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pubsubcd/internal/core"
)

// mapProxy is the proxy's caching logic with one map per page
// attribute, kept here as the model Proxy's per-page records must
// agree with. A page in sizes takes the refresh branch; a page in
// bodies has its body held. When its own strategy reports a page
// evicted, the model forgets the page's body and size, so the next
// request for it takes the miss branch.
type mapProxy struct {
	strategy core.Strategy
	fetcher  Fetcher
	cost     float64
	ids      map[string]int
	names    []string // by dense index
	bodies   map[string][]byte
	versions map[string]int
	sizes    map[string]int64
	latest   map[string]int
	subs     map[string]int
	stats    ProxyStats
}

func newMapProxy(strategy core.Strategy, fetcher Fetcher, cost float64) *mapProxy {
	return &mapProxy{
		strategy: strategy, fetcher: fetcher, cost: cost,
		ids: map[string]int{}, bodies: map[string][]byte{}, versions: map[string]int{},
		sizes: map[string]int64{}, latest: map[string]int{}, subs: map[string]int{},
	}
}

func (m *mapProxy) pageIndex(pageID string) int {
	id, ok := m.ids[pageID]
	if !ok {
		id = len(m.ids)
		m.ids[pageID] = id
		m.names = append(m.names, pageID)
	}
	return id
}

// dropEvicted evicts the pages the strategy's last call reported
// evicted.
func (m *mapProxy) dropEvicted() {
	for _, id := range m.strategy.(core.EvictionReporter).Evicted() {
		m.evict(m.names[id])
	}
}

func (m *mapProxy) store(c Content) {
	m.bodies[c.ID] = c.Body
	m.versions[c.ID] = c.Version
	m.sizes[c.ID] = bodySize(c.Body)
}

func (m *mapProxy) observeVersion(pageID string, version int) {
	if version > m.latest[pageID] {
		m.latest[pageID] = version
	}
}

func (m *mapProxy) evict(pageID string) {
	delete(m.bodies, pageID)
	delete(m.versions, pageID)
	delete(m.sizes, pageID)
}

func (m *mapProxy) push(c Content, matched int) {
	m.stats.PushesSeen++
	m.subs[c.ID] = matched
	m.observeVersion(c.ID, c.Version)
	meta := core.PageMeta{ID: m.pageIndex(c.ID), Size: bodySize(c.Body), Cost: m.cost}
	stored := m.strategy.Push(meta, c.Version, m.subs[c.ID])
	m.dropEvicted()
	if stored {
		m.stats.PushesStored++
		m.store(c)
	}
}

func (m *mapProxy) fetch(pageID string, staleBody []byte, haveStale bool) (Content, bool, error) {
	current, err := m.fetcher.Fetch(pageID)
	if err == nil {
		return current, false, nil
	}
	m.stats.FetchErrors++
	if haveStale {
		m.stats.DegradedStale++
		return Content{ID: pageID, Version: m.versions[pageID], Body: staleBody}, true, nil
	}
	return Content{}, false, err
}

func (m *mapProxy) request(pageID string) ([]byte, error) {
	m.stats.Requests++
	if size, ok := m.sizes[pageID]; ok {
		meta := core.PageMeta{ID: m.pageIndex(pageID), Size: size, Cost: m.cost}
		hit, stored := m.strategy.Request(meta, m.latest[pageID], m.subs[pageID])
		body, held := m.bodies[pageID]
		fresh := hit && held && m.versions[pageID] >= m.latest[pageID]
		m.dropEvicted()
		if fresh {
			m.stats.Hits++
			return body, nil
		}
		body, held = m.bodies[pageID]
		current, degraded, err := m.fetch(pageID, body, held)
		if err != nil {
			return nil, err
		}
		if degraded {
			return current.Body, nil
		}
		m.observeVersion(pageID, current.Version)
		m.stats.Fetches++
		if stored {
			m.store(current)
		} else {
			m.evict(pageID)
		}
		return current.Body, nil
	}
	current, degraded, err := m.fetch(pageID, nil, false)
	if err != nil {
		return nil, err
	}
	if degraded {
		return current.Body, nil
	}
	m.observeVersion(pageID, current.Version)
	meta := core.PageMeta{ID: m.pageIndex(pageID), Size: bodySize(current.Body), Cost: m.cost}
	_, stored := m.strategy.Request(meta, current.Version, m.subs[pageID])
	m.dropEvicted()
	m.stats.Fetches++
	if stored {
		m.store(current)
	}
	return current.Body, nil
}

// modelOrigin serves each page at its current version, with a body
// that names page and version; it fails while down.
type modelOrigin struct {
	down     bool
	versions map[string]int
	sizes    map[string]int
}

func (o *modelOrigin) content(pageID string) Content {
	v := o.versions[pageID]
	body := bytes.Repeat([]byte(fmt.Sprintf("%s@%d;", pageID, v)), o.sizes[pageID])
	return Content{ID: pageID, Version: v, Body: body}
}

func (o *modelOrigin) Fetch(pageID string) (Content, error) {
	return o.FetchContext(context.Background(), pageID)
}

func (o *modelOrigin) FetchContext(_ context.Context, pageID string) (Content, error) {
	if o.down {
		return Content{}, errors.New("origin down")
	}
	return o.content(pageID), nil
}

// TestProxyMatchesMapModel: random pushes (some overtaken by a newer
// version) and requests, with the fetch path down for about a quarter
// of the operations, give the same
// bodies, errors and Stats from Proxy as from mapProxy, for every
// strategy family at a capacity small enough to evict. Every strategy
// must have served a stale copy, the access-time-only GD* included: it
// declines pushes but keeps the page it holds, so its proxy keeps the
// now stale body until a request refreshes it.
func TestProxyMatchesMapModel(t *testing.T) {
	for _, sc := range []struct {
		name        string
		newStrategy func(core.Params) (core.Strategy, error)
	}{
		{"GD*", core.NewGDStar}, {"SUB", core.NewSUB}, {"SG2", core.NewSG2}, {"DM", core.NewDM}, {"DC-LAP", core.NewDCLAP},
	} {
		name := sc.name
		var total ProxyStats
		for seed := int64(1); seed <= 5; seed++ {
			params := core.Params{Capacity: 600, Beta: 2}
			strat, err := sc.newStrategy(params)
			if err != nil {
				t.Fatal(err)
			}
			modelStrategy, err := sc.newStrategy(params)
			if err != nil {
				t.Fatal(err)
			}
			origin := &modelOrigin{versions: map[string]int{}, sizes: map[string]int{}}
			b := New()
			p, err := NewProxy(0, b, strat, 1.5, WithProxyFetcher(origin))
			if err != nil {
				t.Fatal(err)
			}
			model := newMapProxy(modelStrategy, origin, 1.5)
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 400; step++ {
				page := fmt.Sprintf("page-%d", rng.Intn(12))
				if _, ok := origin.sizes[page]; !ok {
					origin.sizes[page] = 1 + rng.Intn(20)
				}
				origin.down = rng.Intn(4) == 0
				if rng.Intn(3) == 0 {
					origin.versions[page]++
					c, matched := origin.content(page), rng.Intn(5)
					if rng.Intn(8) == 0 && c.Version > 2 {
						c.Version -= 2 // a push overtaken by a newer one
					}
					p.PushContext(context.Background(), c, matched)
					model.push(c, matched)
				} else {
					got, gotErr := p.RequestContext(context.Background(), page)
					want, wantErr := model.request(page)
					if !bytes.Equal(got, want) || (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s seed %d step %d: Request(%s) = %q, %v; model %q, %v", name, seed, step, page, got, gotErr, want, wantErr)
					}
				}
				if got := p.Stats(); got != model.stats {
					t.Fatalf("%s seed %d step %d: Stats = %+v, model %+v", name, seed, step, got, model.stats)
				}
			}
			st := p.Stats()
			total.Hits += st.Hits
			total.DegradedStale += st.DegradedStale
			total.FetchErrors += st.FetchErrors
			p.Close()
		}
		if total.Hits == 0 || total.DegradedStale == 0 || total.FetchErrors == total.DegradedStale {
			t.Errorf("%s: the runs missed a path (hit, stale serve, failed miss): %+v", name, total)
		}
	}
}

// TestProxyPushAndHitZeroAlloc pins the proxy's steady state at zero
// allocations: a push of a page it already holds, a request that hits,
// and on a full proxy a push that evicts and a request miss that
// evicts, each dropping the evicted page's body.
func TestProxyPushAndHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	b := New()
	p := newTestProxy(t, b, 0)
	defer p.Close()
	ctx := context.Background()
	c := Content{ID: "story", Version: 1, Body: []byte("content")}
	p.PushContext(ctx, c, 3)
	push := func() {
		c.Version++
		p.PushContext(ctx, c, 3)
	}
	if allocs := testing.AllocsPerRun(100, push); allocs != 0 {
		t.Errorf("push of a known page allocates %.1f times, want 0", allocs)
	}
	hit := func() {
		if _, err := p.RequestContext(ctx, "story"); err != nil {
			t.Fatal(err)
		}
	}
	before := p.Stats().Hits
	if allocs := testing.AllocsPerRun(100, hit); allocs != 0 {
		t.Errorf("proxy hit allocates %.1f times, want 0", allocs)
	}
	if p.Stats().Hits == before {
		t.Error("requests did not hit")
	}

	// Pages of 100 bytes cycle over twice as many IDs as the cache
	// holds, all seen in the warm-up, so every op admits a page the
	// strategy no longer holds and evicts one.
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = fmt.Sprintf("page-%d", i)
	}
	body := make([]byte, 100)
	for _, c := range []struct {
		name        string
		newStrategy func(core.Params) (core.Strategy, error)
		op          func(p *Proxy, n int)
	}{
		// SUB admits each push: it carries more subscriptions than any
		// page before it.
		{"push that evicts", core.NewSUB, func(p *Proxy, n int) {
			p.PushContext(ctx, Content{ID: ids[n%len(ids)], Version: n, Body: body}, n)
		}},
		// GD* admits every miss, and the cycle is longer than the cache.
		{"request miss that evicts", core.NewGDStar, func(p *Proxy, n int) {
			if _, err := p.RequestContext(ctx, ids[n%len(ids)]); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		strat, err := c.newStrategy(core.Params{Capacity: 1000, Beta: 2})
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewProxy(1, b, strat, 1, WithProxyFetcher(&flakyFetcher{content: Content{Body: body}}))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		op := func() {
			n++
			before := strat.(core.StatsProvider).OpStats().Evictions
			c.op(full, n)
			if n > 2*len(ids) && strat.(core.StatsProvider).OpStats().Evictions != before+1 {
				t.Fatalf("%s: op %d did not evict one page", c.name, n)
			}
		}
		for n < 2*len(ids) {
			op()
		}
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s allocates %.1f times, want 0", c.name, allocs)
		}
		if pages, bytes := heldBodies(full); pages != strat.Len() || bytes != strat.Used() {
			t.Errorf("%s: proxy holds %d bodies of %d bytes, strategy %d pages of %d bytes",
				c.name, pages, bytes, strat.Len(), strat.Used())
		}
		full.Close()
	}
}

// heldBodies counts the pages whose body a proxy holds and their bytes,
// by the size each body gives the strategy.
func heldBodies(p *Proxy) (pages int, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.pages {
		if pg := &p.pages[i]; pg.held {
			pages++
			bytes += bodySize(pg.body)
		}
	}
	return pages, bytes
}

// TestProxyHoldsWhatItsStrategyHolds drives proxies with seeded random
// pushes (some overtaken by a newer version) and requests, the fetch
// path up, at a capacity small enough to evict on most ops. Each page
// keeps its size across versions, so the size the strategy was told is
// the size of every body. After every op, the proxy holds a body for
// exactly the pages its strategy holds: as many pages as Len and as
// many bytes as Used. That includes the access-time-only GD*, which
// declines every push but keeps the page it holds until a request
// refreshes it, so its proxy keeps the stale body too.
func TestProxyHoldsWhatItsStrategyHolds(t *testing.T) {
	for _, name := range []string{"GD*", "SUB", "SG2", "DM", "DC-LAP"} {
		f, err := core.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var evictions int64
		for seed := int64(1); seed <= 5; seed++ {
			strat, err := f.New(core.Params{Capacity: 2000, Beta: 2})
			if err != nil {
				t.Fatal(err)
			}
			origin := &sizedOrigin{versions: map[string]int{}, sizes: map[string]int{}}
			p, err := NewProxy(0, New(), strat, 1.5, WithProxyFetcher(origin))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			const pushSteps, pageCount = 400, 30
			for step := 0; step < 600; step++ {
				page := fmt.Sprintf("page-%d", rng.Intn(pageCount))
				if _, ok := origin.sizes[page]; !ok {
					origin.sizes[page] = 1 + rng.Intn(400)
				}
				if step < pushSteps && rng.Intn(2) == 0 {
					origin.versions[page]++
					c := origin.content(page)
					if rng.Intn(8) == 0 && c.Version > 2 {
						c.Version -= 2 // a push overtaken by a newer one
					}
					p.Push(c, rng.Intn(6))
				} else if _, err := p.Request(page); err != nil {
					t.Fatal(err)
				}
				if pages, bytes := heldBodies(p); pages != strat.Len() || bytes != strat.Used() {
					t.Fatalf("%s seed %d step %d: proxy holds %d bodies of %d bytes, strategy %d pages of %d bytes",
						name, seed, step, pages, bytes, strat.Len(), strat.Used())
				}
			}
			evictions += strat.(core.StatsProvider).OpStats().Evictions
			p.Close()
		}
		if evictions == 0 {
			t.Errorf("%s: no op evicted; the test exercises nothing", name)
		}
	}
}

// TestEvictedPageTakesTheMissBranch: a page its strategy evicted is
// requested as a miss, whatever the proxy once stored. Two 60-byte
// pages share a cache that holds one (DC-LAP's access part holds one of
// 200 bytes); the second request evicts the first page, and the origin
// then moves the first page to v2 without a push. The next request
// fetches v2 and only then tells the strategy, so the strategy admits
// v2 and the request after it hits: 1 fetch and 1 hit. Telling the
// strategy the pushed version before the fetch admits v1 beside the
// stored v2 body and costs a second fetch. With the fetch path down
// for that request, the request fails and the strategy still holds
// only the page whose body the proxy holds.
func TestEvictedPageTakesTheMissBranch(t *testing.T) {
	for _, sc := range []struct {
		name     string
		capacity int64
	}{{"GD*", 100}, {"DM", 100}, {"DC-LAP", 200}} {
		for _, down := range []bool{false, true} {
			name := fmt.Sprintf("%s/fetch-down=%v", sc.name, down)
			f, err := core.Lookup(sc.name)
			if err != nil {
				t.Fatal(err)
			}
			strat, err := f.New(core.Params{Capacity: sc.capacity, Beta: 2})
			if err != nil {
				t.Fatal(err)
			}
			// "a@1;" repeated 15 times: 60 bytes.
			origin := &modelOrigin{versions: map[string]int{"a": 1, "b": 1}, sizes: map[string]int{"a": 15, "b": 15}}
			p, err := NewProxy(0, New(), strat, 1.5, WithProxyFetcher(origin))
			if err != nil {
				t.Fatal(err)
			}
			for _, page := range []string{"a", "b"} {
				if _, err := p.Request(page); err != nil {
					t.Fatal(err)
				}
			}
			if pages, _ := heldBodies(p); pages != 1 || strat.Len() != 1 {
				t.Fatalf("%s: proxy holds %d bodies, strategy %d pages; want the second page to evict the first", name, pages, strat.Len())
			}
			origin.versions["a"] = 2
			before := p.Stats()
			origin.down = down
			body, err := p.Request("a")
			if down {
				pages, bytes := heldBodies(p)
				if err == nil || pages != strat.Len() || bytes != strat.Used() {
					t.Errorf("%s: request served %q, err %v; proxy holds %d bodies of %d bytes, strategy %d pages of %d bytes",
						name, body, err, pages, bytes, strat.Len(), strat.Used())
				}
				p.Close()
				continue
			}
			if err != nil || !bytes.Equal(body, origin.content("a").Body) {
				t.Fatalf("%s: request served %q, err %v; want v2", name, body, err)
			}
			if _, err := p.Request("a"); err != nil {
				t.Fatal(err)
			}
			st := p.Stats()
			if fetches, hits := st.Fetches-before.Fetches, st.Hits-before.Hits; fetches != 1 || hits != 1 {
				t.Errorf("%s: two requests after the move took %d fetches and %d hits, want 1 and 1", name, fetches, hits)
			}
			p.Close()
		}
	}
}

// hiddenReport wraps a strategy without forwarding its eviction report,
// as a third-party strategy or a decorator would.
type hiddenReport struct{ core.Strategy }

// TestProxyReportKeepsOutcomes: with the fetch path up and every
// origin version pushed, dropping the evicted bodies changes no
// outcome. Two proxies take the same seeded pushes (some followed by a
// late push of an older version) and requests, one reading its
// strategy's eviction report and one whose strategy hides it; after
// every op their served bodies and Stats are equal. The last strategy
// starts DC-LAP at its lower bound, so first accesses take DC-FP's
// move, which can drop the very page a request hits. (When the origin
// is ahead of every push, the report does change outcomes: a dropped
// page's request tells the strategy the fetched version, not the
// pushed one; TestEvictedPageTakesTheMissBranch pins that.)
func TestProxyReportKeepsOutcomes(t *testing.T) {
	lowerBound := func(p core.Params) (core.Strategy, error) {
		return core.NewDCLAPBounded(p, 0.5, core.DefaultDCLAPUpper)
	}
	for _, sc := range []struct {
		name        string
		newStrategy func(core.Params) (core.Strategy, error)
	}{
		{"GD*", core.NewGDStar}, {"SUB", core.NewSUB}, {"SG2", core.NewSG2}, {"DM", core.NewDM},
		{"DC-LAP", core.NewDCLAP}, {"DC-LAP-at-lower-bound", lowerBound},
	} {
		var drops int
		for seed := int64(1); seed <= 5; seed++ {
			params := core.Params{Capacity: 2000, Beta: 2}
			reporting, err := sc.newStrategy(params)
			if err != nil {
				t.Fatal(err)
			}
			silent, err := sc.newStrategy(params)
			if err != nil {
				t.Fatal(err)
			}
			origin := &sizedOrigin{versions: map[string]int{}, sizes: map[string]int{}}
			b := New()
			p, err := NewProxy(0, b, reporting, 1.5, WithProxyFetcher(origin))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := NewProxy(1, b, hiddenReport{silent}, 1.5, WithProxyFetcher(origin))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 600; step++ {
				page := fmt.Sprintf("page-%d", rng.Intn(30))
				if _, ok := origin.sizes[page]; !ok {
					origin.sizes[page] = 1 + rng.Intn(700)
				}
				if rng.Intn(2) == 0 {
					origin.versions[page]++
					c, matched := origin.content(page), rng.Intn(6)
					p.Push(c, matched)
					plain.Push(c, matched)
					if rng.Intn(8) == 0 && c.Version > 2 {
						c.Version -= 2 // a push overtaken by the newer one, arriving late
						p.Push(c, matched)
						plain.Push(c, matched)
					}
				} else {
					got, err := p.Request(page)
					if err != nil {
						t.Fatal(err)
					}
					want, err := plain.Request(page)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s seed %d step %d: Request(%s) served %d bytes, %d without the report", sc.name, seed, step, page, len(got), len(want))
					}
				}
				if got, want := p.Stats(), plain.Stats(); got != want {
					t.Fatalf("%s seed %d step %d: Stats = %+v, %+v without the report", sc.name, seed, step, got, want)
				}
				drops += len(reporting.(core.EvictionReporter).Evicted())
			}
			p.Close()
			plain.Close()
		}
		if drops == 0 {
			t.Errorf("%s: no op evicted; the test exercises nothing", sc.name)
		}
	}
}

// sizedOrigin serves each page at its current version with a body of
// the page's fixed size.
type sizedOrigin struct {
	versions map[string]int
	sizes    map[string]int
}

func (o *sizedOrigin) content(pageID string) Content {
	return Content{ID: pageID, Version: o.versions[pageID], Body: make([]byte, o.sizes[pageID])}
}

func (o *sizedOrigin) Fetch(pageID string) (Content, error) {
	return o.content(pageID), nil
}

func (o *sizedOrigin) FetchContext(_ context.Context, pageID string) (Content, error) {
	return o.content(pageID), nil
}

// BenchmarkProxyPush offers one publish to 100 DC-LAP proxies, as the
// broker does for a page matched at every proxy. Pages cycle over 600
// IDs, each proxy holding about a tenth of their bytes, so offers are
// a mix of refreshes, admissions that evict and rejections. Every proxy
// has seen every page before the clock starts.
func BenchmarkProxyPush(b *testing.B) {
	const proxies, pages = 100, 600
	brk := New()
	ps := make([]*Proxy, proxies)
	for i := range ps {
		strat, err := core.NewDCLAP(core.Params{Capacity: pages * 512 / 10, Beta: 2})
		if err != nil {
			b.Fatal(err)
		}
		if ps[i], err = NewProxy(i, brk, strat, 1+float64(i%7), WithProxyFetcher(brk)); err != nil {
			b.Fatal(err)
		}
	}
	contents := make([]Content, pages)
	for i := range contents {
		contents[i] = Content{ID: fmt.Sprintf("page-%d", i), Body: make([]byte, 64+(i*37)%960)}
	}
	ctx := context.Background()
	offer := func(n int) {
		c := &contents[n%pages]
		c.Version++
		for i, p := range ps {
			p.PushContext(ctx, *c, 1+(n+i)%5)
		}
	}
	for n := 0; n < pages; n++ {
		offer(n) // every proxy has seen every page
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		offer(n)
	}
}
