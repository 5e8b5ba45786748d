package broker

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pubsubcd/internal/core"
)

// storeAllStrategy caches everything; it isolates the degradation
// ladder from placement decisions.
type storeAllStrategy struct{ pages map[int]int64 }

func newStoreAll() *storeAllStrategy { return &storeAllStrategy{pages: make(map[int]int64)} }

func (s *storeAllStrategy) Name() string { return "store-all" }
func (s *storeAllStrategy) Push(p core.PageMeta, version, subs int) bool {
	s.pages[p.ID] = p.Size
	return true
}
func (s *storeAllStrategy) Request(p core.PageMeta, version, subs int) (bool, bool) {
	_, ok := s.pages[p.ID]
	s.pages[p.ID] = p.Size
	return ok, true
}
func (s *storeAllStrategy) Used() (n int64) {
	for _, sz := range s.pages {
		n += sz
	}
	return n
}
func (s *storeAllStrategy) Capacity() int64 { return 1 << 30 }
func (s *storeAllStrategy) Len() int        { return len(s.pages) }

// flakyFetcher fails while down, else serves fixed content.
type flakyFetcher struct {
	down    atomic.Bool
	content Content
	calls   atomic.Int64
}

func (f *flakyFetcher) Fetch(pageID string) (Content, error) {
	return f.FetchContext(context.Background(), pageID)
}

func (f *flakyFetcher) FetchContext(_ context.Context, pageID string) (Content, error) {
	f.calls.Add(1)
	if f.down.Load() {
		return Content{}, errors.New("fetch path down")
	}
	c := f.content
	c.ID = pageID
	return c, nil
}

func TestProxyServesStaleWhenFetchPathDown(t *testing.T) {
	b := New()
	fetcher := &flakyFetcher{}
	p, err := NewProxy(3, b, newStoreAll(), 1, WithProxyFetcher(fetcher))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Push v1 into the cache, then let the broker learn about v2 so the
	// cached copy is stale.
	p.Push(Content{ID: "page", Version: 1, Body: []byte("v1")}, 1)
	p.Push(Content{ID: "page", Version: 2, Body: nil}, 0) // version gossip only
	// Re-push v1's body so the cached copy is v1 while latest known is 2.
	p.Push(Content{ID: "page", Version: 1, Body: []byte("v1")}, 0)

	fetcher.down.Store(true)
	body, err := p.Request("page")
	if err != nil {
		t.Fatalf("request should degrade to the stale copy, got error: %v", err)
	}
	if string(body) != "v1" {
		t.Errorf("degraded body = %q, want the stale v1", body)
	}
	st := p.Stats()
	if st.DegradedStale != 1 || st.FetchErrors != 1 {
		t.Errorf("stats = %+v, want DegradedStale=1 FetchErrors=1", st)
	}

	// When the path heals, the refetch resumes and the fresh version is
	// served.
	fetcher.down.Store(false)
	fetcher.content = Content{Version: 2, Body: []byte("v2")}
	body, err = p.Request("page")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "v2" {
		t.Errorf("healed body = %q, want v2", body)
	}
}

func TestProxyFailsWhenEverythingIsDown(t *testing.T) {
	b := New()
	primary := &flakyFetcher{}
	primary.down.Store(true)
	p, err := NewProxy(5, b, newStoreAll(), 1, WithProxyFetcher(primary))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Request("nope"); err == nil {
		t.Fatal("request must fail when the page is uncached and the fetch path is down")
	}
	if st := p.Stats(); st.FetchErrors != 1 {
		t.Errorf("stats = %+v, want FetchErrors=1", st)
	}
}

// TestProxyFetchesThroughResilientClient wires a proxy's fetch path
// through the TCP client's Fetcher adapter and severs the connection:
// with reconnection enabled the fetch rides the redial, so the proxy
// never needs to degrade.
func TestProxyFetchesThroughResilientClient(t *testing.T) {
	s, origin := startServer(t)
	if _, err := origin.Publish(Content{ID: "page", Topics: []string{"t"}, Body: []byte("fresh")}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := Dial(ctx, s.Addr(), WithReconnect(fastBackoff()), WithRetryBudget(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	edge := New()
	p, err := NewProxy(0, edge, newStoreAll(), 1, WithProxyFetcher(c.Fetcher(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	body, err := p.Request("page")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "fresh" {
		t.Errorf("body = %q", body)
	}

	// Restart the origin's transport and fetch a page the proxy has
	// never cached: the resilient client absorbs the failure.
	restartServer(t, s, origin)
	if _, err := origin.Publish(Content{ID: "page2", Topics: []string{"t"}, Body: []byte("fresh2")}); err != nil {
		t.Fatal(err)
	}
	body, err = p.Request("page2")
	if err != nil {
		t.Fatalf("fetch through restart: %v", err)
	}
	if string(body) != "fresh2" {
		t.Errorf("body = %q", body)
	}
	if st := p.Stats(); st.DegradedStale != 0 {
		t.Errorf("proxy degraded despite resilient fetch path: %+v", st)
	}
}

// rejectableStrategy is a store-all that can be told to start
// rejecting pushes, forcing the proxy down its eviction path.
type rejectableStrategy struct {
	*storeAllStrategy
	reject bool
}

func (s *rejectableStrategy) Push(p core.PageMeta, version, subs int) bool {
	if s.reject {
		delete(s.pages, p.ID)
		return false
	}
	return s.storeAllStrategy.Push(p, version, subs)
}

// TestProxyDropsBodyWhenRePushRejected: when the strategy rejects a
// re-push of a stored page, the proxy drops that page's body, so the
// next request is a fetch, not a hit — and with the fetch path down
// there is no stale copy left to degrade to.
func TestProxyDropsBodyWhenRePushRejected(t *testing.T) {
	b := New()
	fetcher := &flakyFetcher{content: Content{Version: 2, Body: []byte("dropped-v2")}}
	strat := &rejectableStrategy{storeAllStrategy: newStoreAll()}
	p, err := NewProxy(2, b, strat, 1, WithProxyFetcher(fetcher))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Push(Content{ID: "keep", Version: 1, Body: []byte("kept")}, 1)
	p.Push(Content{ID: "drop", Version: 1, Body: []byte("dropped")}, 1)
	strat.reject = true
	p.Push(Content{ID: "drop", Version: 2}, 0) // strategy rejects → evict

	fetcher.down.Store(true)
	if body, err := p.Request("keep"); err != nil || string(body) != "kept" {
		t.Fatalf("kept page: body %q, err %v; want a local hit", body, err)
	}
	if body, err := p.Request("drop"); err == nil {
		t.Fatalf("dropped page served %q with the fetch path down; its body should be gone", body)
	}
	if st := p.Stats(); st.Hits != 1 || st.Fetches != 0 || st.DegradedStale != 0 || st.FetchErrors != 1 {
		t.Errorf("stats = %+v, want Hits=1 Fetches=0 DegradedStale=0 FetchErrors=1", st)
	}

	fetcher.down.Store(false)
	body, err := p.Request("drop")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "dropped-v2" {
		t.Errorf("body = %q, want the fetched dropped-v2", body)
	}
	if st := p.Stats(); st.Hits != 1 || st.Fetches != 1 {
		t.Errorf("stats = %+v, want Hits=1 (unchanged) Fetches=1", st)
	}
}

// TestProxyNeverServesEvictedCopy: a page the strategy evicted to make
// room for another is no longer the proxy's copy, so with the fetch
// path down a request for it fails instead of degrading to the old
// body, while the page that displaced it is still a local hit.
func TestProxyNeverServesEvictedCopy(t *testing.T) {
	b := New()
	fetcher := &flakyFetcher{}
	strat, err := core.NewSUB(core.Params{Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProxy(4, b, strat, 1, WithProxyFetcher(fetcher))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Push(Content{ID: "old", Version: 1, Body: []byte("evicted")}, 1)
	p.Push(Content{ID: "new", Version: 1, Body: []byte("resident")}, 5) // SUB evicts "old"
	if strat.Len() != 1 {
		t.Fatalf("strategy holds %d pages, want 1 after the eviction", strat.Len())
	}

	fetcher.down.Store(true)
	if body, err := p.Request("new"); err != nil || string(body) != "resident" {
		t.Fatalf("resident page: body %q, err %v; want a local hit", body, err)
	}
	before := p.Stats()
	if body, err := p.Request("old"); err == nil {
		t.Fatalf("evicted page served %q with the fetch path down", body)
	}
	st := p.Stats()
	if st.FetchErrors != before.FetchErrors+1 || st.DegradedStale != before.DegradedStale {
		t.Errorf("stats = %+v after %+v, want FetchErrors +1 and DegradedStale unchanged", st, before)
	}
}

// dropOnHitStrategy is a store-all whose requests hit and then drop
// the page, as DC-FP's move does with a page larger than the access
// cache, reporting the eviction.
type dropOnHitStrategy struct {
	*storeAllStrategy
	evicted []int
}

func (s *dropOnHitStrategy) Push(p core.PageMeta, version, subs int) bool {
	s.evicted = s.evicted[:0]
	return s.storeAllStrategy.Push(p, version, subs)
}

func (s *dropOnHitStrategy) Request(p core.PageMeta, version, subs int) (bool, bool) {
	s.evicted = s.evicted[:0]
	if _, ok := s.pages[p.ID]; ok {
		delete(s.pages, p.ID)
		s.evicted = append(s.evicted, p.ID)
		return true, false
	}
	s.pages[p.ID] = p.Size
	return false, true
}

func (s *dropOnHitStrategy) Evicted() []int { return s.evicted }

// TestProxyServesHitItsStrategyThenDrops: a request the strategy
// answers as a hit is served from the held body and counted as a hit
// even when the same call evicts the page; the body is dropped after
// it, so with the fetch path down the next request fails.
func TestProxyServesHitItsStrategyThenDrops(t *testing.T) {
	b := New()
	fetcher := &flakyFetcher{}
	p, err := NewProxy(6, b, &dropOnHitStrategy{storeAllStrategy: newStoreAll()}, 1, WithProxyFetcher(fetcher))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Push(Content{ID: "page", Version: 1, Body: []byte("v1")}, 1)
	fetcher.down.Store(true)
	if body, err := p.Request("page"); err != nil || string(body) != "v1" {
		t.Fatalf("body %q, err %v; want the held v1 as a hit", body, err)
	}
	if st := p.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want Hits=1", st)
	}
	if body, err := p.Request("page"); err == nil {
		t.Fatalf("dropped page served %q with the fetch path down", body)
	}
	if st := p.Stats(); st.Hits != 1 || st.FetchErrors != 1 || st.DegradedStale != 0 {
		t.Errorf("stats = %+v, want Hits=1 FetchErrors=1 DegradedStale=0", st)
	}
}
