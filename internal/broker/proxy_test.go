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
// agree with.
type mapProxy struct {
	strategy core.Strategy
	fetcher  Fetcher
	cost     float64
	ids      map[string]int
	bodies   map[string][]byte
	versions map[string]int
	latest   map[string]int
	subs     map[string]int
	stats    ProxyStats
}

func newMapProxy(strategy core.Strategy, fetcher Fetcher, cost float64) *mapProxy {
	return &mapProxy{
		strategy: strategy, fetcher: fetcher, cost: cost,
		ids: map[string]int{}, bodies: map[string][]byte{}, versions: map[string]int{},
		latest: map[string]int{}, subs: map[string]int{},
	}
}

func (m *mapProxy) pageIndex(pageID string) int {
	id, ok := m.ids[pageID]
	if !ok {
		id = len(m.ids)
		m.ids[pageID] = id
	}
	return id
}

func (m *mapProxy) observeVersion(pageID string, version int) {
	if version > m.latest[pageID] {
		m.latest[pageID] = version
	}
}

func (m *mapProxy) evict(pageID string) {
	delete(m.bodies, pageID)
	delete(m.versions, pageID)
}

func (m *mapProxy) push(c Content, matched int) {
	m.stats.PushesSeen++
	m.subs[c.ID] = matched
	m.observeVersion(c.ID, c.Version)
	meta := core.PageMeta{ID: m.pageIndex(c.ID), Size: bodySize(c.Body), Cost: m.cost}
	if m.strategy.Push(meta, c.Version, m.subs[c.ID]) {
		m.stats.PushesStored++
		m.bodies[c.ID] = c.Body
		m.versions[c.ID] = c.Version
	} else {
		m.evict(c.ID)
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
	if body, ok := m.bodies[pageID]; ok {
		meta := core.PageMeta{ID: m.pageIndex(pageID), Size: bodySize(body), Cost: m.cost}
		hit, stored := m.strategy.Request(meta, m.latest[pageID], m.subs[pageID])
		if hit && m.versions[pageID] >= m.latest[pageID] {
			m.stats.Hits++
			return body, nil
		}
		current, degraded, err := m.fetch(pageID, body, true)
		if err != nil {
			return nil, err
		}
		if degraded {
			return current.Body, nil
		}
		m.observeVersion(pageID, current.Version)
		m.stats.Fetches++
		if stored {
			m.bodies[pageID] = current.Body
			m.versions[pageID] = current.Version
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
	m.stats.Fetches++
	if stored {
		m.bodies[pageID] = current.Body
		m.versions[pageID] = current.Version
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
	if o.down {
		return Content{}, errors.New("origin down")
	}
	return o.content(pageID), nil
}

// TestProxyMatchesMapModel: random pushes (some overtaken by a newer
// version) and requests, with the fetch path down for about a quarter
// of the operations, give the same
// bodies, errors and Stats from Proxy as from mapProxy, for every
// strategy family at a capacity small enough to evict.
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
// allocations: a push of a page it already holds, and a request that
// hits.
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
