package broker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pubsubcd/internal/core"
	"pubsubcd/internal/match"
)

type recordingNotifier struct {
	mu    sync.Mutex
	notes []Notification
}

func (r *recordingNotifier) Notify(n Notification) { r.NotifyContext(context.Background(), n) }

func (r *recordingNotifier) NotifyContext(_ context.Context, n Notification) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, n)
}

func (r *recordingNotifier) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.notes)
}

func TestBrokerPublishNotifiesMatchingSubscribers(t *testing.T) {
	b := New()
	rec := &recordingNotifier{}
	id, err := b.Subscribe(match.Subscription{Proxy: 0, Topics: []string{"sports"}}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("expected non-zero subscription ID")
	}
	other := &recordingNotifier{}
	if _, err := b.Subscribe(match.Subscription{Proxy: 1, Topics: []string{"politics"}}, other); err != nil {
		t.Fatal(err)
	}
	matched, err := b.Publish(Content{ID: "p1", Topics: []string{"sports"}, Body: []byte("goal")})
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Fatalf("matched = %d, want 1", matched)
	}
	if rec.count() != 1 {
		t.Fatalf("subscriber got %d notifications, want 1", rec.count())
	}
	if other.count() != 0 {
		t.Fatal("non-matching subscriber was notified")
	}
	rec.mu.Lock()
	n := rec.notes[0]
	rec.mu.Unlock()
	if n.PageID != "p1" || n.Size != 4 {
		t.Errorf("notification = %+v", n)
	}
}

func TestBrokerValidation(t *testing.T) {
	b := New()
	if _, err := b.Subscribe(match.Subscription{Proxy: 0, Topics: []string{"t"}}, nil); err == nil {
		t.Error("nil notifier should error")
	}
	if _, err := b.Publish(Content{}); err == nil {
		t.Error("content without ID should error")
	}
	if err := b.AttachProxy(0, nil); err == nil {
		t.Error("nil sink should error")
	}
	if _, err := b.Fetch("missing"); !errors.Is(err, ErrUnknownPage) {
		t.Errorf("Fetch(missing) = %v, want ErrUnknownPage", err)
	}
}

func TestBrokerVersionMonotonicity(t *testing.T) {
	b := New()
	if _, err := b.Publish(Content{ID: "p", Version: 1, Body: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(Content{ID: "p", Version: 1, Body: []byte("again")}); err == nil {
		t.Error("same version republish should error")
	}
	if _, err := b.Publish(Content{ID: "p", Version: 0, Body: []byte("old")}); err == nil {
		t.Error("older version should error")
	}
	if _, err := b.Publish(Content{ID: "p", Version: 2, Body: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	c, err := b.Fetch("p")
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != 2 || string(c.Body) != "v2" {
		t.Errorf("fetched %+v", c)
	}
}

func TestBrokerUnsubscribeStopsNotifications(t *testing.T) {
	b := New()
	rec := &recordingNotifier{}
	id, err := b.Subscribe(match.Subscription{Proxy: 0, Topics: []string{"x"}}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(Content{ID: "p", Topics: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 0 {
		t.Error("unsubscribed notifier still notified")
	}
	if b.Subscriptions() != 0 {
		t.Errorf("Subscriptions = %d, want 0", b.Subscriptions())
	}
}

func newTestProxy(t *testing.T, b *Broker, id int) *Proxy {
	t.Helper()
	strat, err := core.NewSG2(core.Params{Capacity: 1 << 20, Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProxy(id, b, strat, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProxyPushThenRequestHits(t *testing.T) {
	b := New()
	p := newTestProxy(t, b, 0)
	defer p.Close()
	if _, err := b.Subscribe(match.Subscription{Proxy: 0, Topics: []string{"news"}}, NotifierFunc(func(Notification) {})); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(Content{ID: "story", Topics: []string{"news"}, Body: []byte("content")}); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.PushesSeen != 1 || st.PushesStored != 1 {
		t.Fatalf("push stats %+v", st)
	}
	body, err := p.Request("story")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "content" {
		t.Errorf("body = %q", body)
	}
	st = p.Stats()
	if st.Hits != 1 || st.Fetches != 0 {
		t.Errorf("pushed page should hit locally: %+v", st)
	}
	if p.HitRatio() != 1 {
		t.Errorf("hit ratio = %g, want 1", p.HitRatio())
	}
}

// pushSubsRecorder wraps a strategy and records the subscription count
// each Push offer carries.
type pushSubsRecorder struct {
	core.Strategy
	subs []int
}

func (r *pushSubsRecorder) Push(meta core.PageMeta, version, subs int) bool {
	r.subs = append(r.subs, subs)
	return r.Strategy.Push(meta, version, subs)
}

// TestProxyPushPassesPublishMatchedCount pins the subscription count a
// proxy hands its strategy: each version's push carries that publish's
// matched count, as the simulator's event streams do, not a running
// sum across versions.
func TestProxyPushPassesPublishMatchedCount(t *testing.T) {
	b := New()
	inner, err := core.NewSG2(core.Params{Capacity: 1 << 20, Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := &pushSubsRecorder{Strategy: inner}
	p, err := NewProxy(0, b, rec, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 2; i++ {
		if _, err := b.Subscribe(match.Subscription{Proxy: 0, Topics: []string{"news"}}, NotifierFunc(func(Notification) {})); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v <= 3; v++ {
		if _, err := b.Publish(Content{ID: "story", Version: v, Topics: []string{"news"}, Body: []byte("content")}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fmt.Sprint(rec.subs), "[2 2 2]"; got != want {
		t.Errorf("strategy Push subs = %s, want %s", got, want)
	}
}

// countingSink records the matched count of each push it is offered.
type countingSink struct{ got map[string]int }

func (s *countingSink) PushContext(_ context.Context, c Content, matched int) { s.got[c.ID] = matched }

// TestPublishCountsAndNotifiesEveryMember: with 300 subscriptions over
// 24 predicates (so each aggregate has many members) and some of them
// unsubscribed again, a publish returns the number of subscriptions it
// matched, notifies each of them once under its own ID, and pushes each
// attached proxy its fS, not its number of matched aggregates. The
// expected subscriptions and fS come from evaluating the test's own live
// subscriptions directly, not from the engine the publish reads. Proxy 3
// has no sink and gets no push.
func TestPublishCountsAndNotifiesEveryMember(t *testing.T) {
	b := New()
	sinks := make([]*countingSink, 3)
	for p := range sinks {
		sinks[p] = &countingSink{got: map[string]int{}}
		if err := b.AttachProxy(p, sinks[p]); err != nil {
			t.Fatal(err)
		}
	}
	notified := map[int64]int{}
	n := NotifierFunc(func(nt Notification) { notified[nt.SubscriptionID]++ })
	rng := rand.New(rand.NewSource(1))
	topics := []string{"a", "b", "c"}
	live := map[int64]match.Subscription{}
	for i := 0; i < 300; i++ {
		sub := match.Subscription{Proxy: rng.Intn(4), Topics: []string{topics[rng.Intn(3)]}}
		if rng.Intn(2) == 0 {
			sub.Keywords = []string{"k"}
		}
		id, err := b.Subscribe(sub, n)
		if err != nil {
			t.Fatal(err)
		}
		live[id] = sub
		if rng.Intn(5) == 0 {
			if err := b.Unsubscribe(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		}
	}
	// matches is the OR-topics, AND-keywords rule, evaluated directly.
	matches := func(sub match.Subscription, c Content) bool {
		if !slices.ContainsFunc(sub.Topics, func(t string) bool { return slices.Contains(c.Topics, t) }) {
			return false
		}
		for _, k := range sub.Keywords {
			if !slices.Contains(c.Keywords, k) {
				return false
			}
		}
		return true
	}
	for i, topic := range topics {
		c := Content{ID: "page-" + topic, Version: 1, Topics: []string{topic}}
		if i%2 == 0 {
			c.Keywords = []string{"k"}
		}
		var want []int64
		counts := map[int]int{}
		for id, sub := range live {
			if matches(sub, c) {
				want = append(want, id)
				counts[sub.Proxy]++
			}
		}
		if len(want) == 0 {
			t.Fatalf("publish %s matches no live subscription", c.ID)
		}
		clear(notified)
		got, err := b.Publish(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != len(want) || len(notified) != len(want) {
			t.Fatalf("publish %s matched %d and notified %d subscriptions, want %d", c.ID, got, len(notified), len(want))
		}
		for _, id := range want {
			if notified[id] != 1 {
				t.Fatalf("publish %s notified subscription %d %d times, want once", c.ID, id, notified[id])
			}
		}
		for p, s := range sinks {
			if s.got[c.ID] != counts[p] {
				t.Errorf("publish %s pushed proxy %d matched=%d, want %d", c.ID, p, s.got[c.ID], counts[p])
			}
		}
	}
}

// TestAggregateMembersKeepTheirTargets: subscriptions of one (proxy,
// topics, keywords) predicate share one aggregate in the match engine,
// and each keeps its own delivery target there. Every notifier receives
// exactly its own subscription IDs, and an unsubscribed member — the
// first, a middle or the last of the aggregate — receives nothing.
func TestAggregateMembersKeepTheirTargets(t *testing.T) {
	b := New()
	sub := match.Subscription{Proxy: 3, Topics: []string{"news"}, Keywords: []string{"k"}}
	recs := make([]*recordingNotifier, 4)
	for i := range recs {
		recs[i] = &recordingNotifier{}
	}
	ids := make([][]int64, len(recs)) // ids[i]: recs[i]'s subscriptions
	for round := 0; round < 2; round++ {
		for i, r := range recs {
			id, err := b.Subscribe(sub, r)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = append(ids[i], id)
		}
	}
	check := func(version int) {
		t.Helper()
		for _, r := range recs {
			r.notes = nil // Publish notifies them before it returns
		}
		if _, err := b.Publish(Content{ID: "p", Version: version, Topics: []string{"news"}, Keywords: []string{"k"}}); err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			var got []int64
			for _, n := range r.notes {
				got = append(got, n.SubscriptionID)
			}
			slices.Sort(got)
			if !slices.Equal(got, ids[i]) {
				t.Fatalf("publish v%d: notifier %d received IDs %v, want its own %v", version, i, got, ids[i])
			}
		}
	}
	check(1)
	// The aggregate's members ascend 1..8; drop its first, a middle and
	// its last member.
	for _, drop := range []struct{ rec, k int }{{0, 0}, {2, 0}, {3, 1}} {
		if err := b.Unsubscribe(ids[drop.rec][drop.k]); err != nil {
			t.Fatal(err)
		}
		ids[drop.rec] = slices.Delete(ids[drop.rec], drop.k, drop.k+1)
	}
	check(2)
}

// TestProxyDistinctPagesNeverAlias checks that two page IDs are two
// pages to the strategy. "page-157538" and "page-296006" collide under a
// 31-bit FNV-1a hash of the string, which once made the strategy see one
// 100-byte page while the proxy kept both bodies.
func TestProxyDistinctPagesNeverAlias(t *testing.T) {
	b := New()
	strat, err := core.NewSUB(core.Params{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProxy(0, b, strat, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Push(Content{ID: "page-157538", Version: 1, Body: make([]byte, 100)}, 1)
	p.Push(Content{ID: "page-296006", Version: 1, Body: make([]byte, 200)}, 1)
	if strat.Len() != 2 || strat.Used() != 300 {
		t.Errorf("strategy holds %d pages, %d bytes; want 2 pages, 300 bytes", strat.Len(), strat.Used())
	}
}

func TestProxyMissFetchesAndCaches(t *testing.T) {
	b := New()
	p := newTestProxy(t, b, 0)
	defer p.Close()
	if _, err := b.Publish(Content{ID: "cold", Body: []byte("brr"), Topics: []string{"t"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Request("cold"); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Hits != 0 || st.Fetches != 1 {
		t.Fatalf("first request should fetch: %+v", st)
	}
	if _, err := p.Request("cold"); err != nil {
		t.Fatal(err)
	}
	st = p.Stats()
	if st.Hits != 1 {
		t.Errorf("second request should hit: %+v", st)
	}
	if _, err := p.Request("never-published"); err == nil {
		t.Error("unknown page should error")
	}
}

func TestProxyStaleCopyRefetches(t *testing.T) {
	b := New()
	p := newTestProxy(t, b, 0)
	defer p.Close()
	if _, err := b.Subscribe(match.Subscription{Proxy: 0, Topics: []string{"n"}}, NotifierFunc(func(Notification) {})); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(Content{ID: "p", Version: 0, Topics: []string{"n"}, Body: []byte("v0")}); err != nil {
		t.Fatal(err)
	}
	// New version pushed: proxy refreshes in place.
	if _, err := b.Publish(Content{ID: "p", Version: 1, Topics: []string{"n"}, Body: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	body, err := p.Request("p")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "v1" {
		t.Errorf("got %q, want refreshed v1", body)
	}
	if st := p.Stats(); st.Hits != 1 {
		t.Errorf("refreshed push should serve locally: %+v", st)
	}
}

func TestProxyValidation(t *testing.T) {
	b := New()
	strat, err := core.NewGDStar(core.Params{Capacity: 100, Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProxy(0, nil, strat, 1); err == nil {
		t.Error("nil broker should error")
	}
	if _, err := NewProxy(0, b, nil, 1); err == nil {
		t.Error("nil strategy should error")
	}
	if _, err := NewProxy(0, b, strat, 0); err == nil {
		t.Error("zero cost should error")
	}
	if _, err := NewProxy(0, b, strat, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewProxy(0, b, strat, 1); err == nil {
		t.Error("duplicate proxy ID should error")
	}
}

func TestBrokerConcurrentPublishSubscribe(t *testing.T) {
	b := New()
	p := newTestProxy(t, b, 0)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				topic := []string{"t"}
				if _, err := b.Subscribe(match.Subscription{Proxy: 0, Topics: topic},
					NotifierFunc(func(Notification) {})); err != nil {
					t.Error(err)
					return
				}
				id := g*1000 + i
				if _, err := b.Publish(Content{
					ID: pageName(id), Topics: topic, Body: []byte("x"),
				}); err != nil {
					t.Error(err)
					return
				}
				if _, err := p.Request(pageName(id)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if b.Subscriptions() != 200 {
		t.Errorf("Subscriptions = %d, want 200", b.Subscriptions())
	}
}

func pageName(i int) string {
	return "page-" + string(rune('a'+i%26)) + "-" + string(rune('0'+(i/26)%10)) + "-" + string(rune('0'+(i/260)%10)) + "-" + string(rune('0'+(i/2600)%10))
}

// TestBrokerUnsubscribeRacesPublishFanout hammers Unsubscribe against
// concurrent Publish fan-out: a subscription may be removed while a
// publish that matched it is still notifying. The broker must never
// panic or deliver to a freed notifier slot, and every notification a
// subscription receives must carry its own ID. Run under -race.
func TestBrokerUnsubscribeRacesPublishFanout(t *testing.T) {
	b := New()
	topic := []string{"hot"}
	var wg sync.WaitGroup

	stopPub := make(chan struct{})
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopPub:
					return
				default:
				}
				_, err := b.Publish(Content{
					ID: fmt.Sprintf("pub%d-%d", g, i), Version: 1, Topics: topic, Body: []byte("x"),
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var gotWrongID atomic.Bool
				var myID atomic.Int64
				id, err := b.Subscribe(match.Subscription{Topics: topic},
					NotifierFunc(func(n Notification) {
						if want := myID.Load(); want != 0 && n.SubscriptionID != want {
							gotWrongID.Store(true)
						}
					}))
				if err != nil {
					t.Error(err)
					return
				}
				myID.Store(id)
				if err := b.Unsubscribe(id); err != nil {
					t.Error(err)
					return
				}
				if gotWrongID.Load() {
					t.Error("notification delivered with a foreign subscription ID")
					return
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Subscribers finish first; then stop the publishers.
	deadline := time.After(30 * time.Second)
	for b.Subscriptions() != 0 {
		select {
		case <-deadline:
			t.Fatalf("subscriptions never drained: %d", b.Subscriptions())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stopPub)
	<-done
	if b.Subscriptions() != 0 {
		t.Errorf("Subscriptions = %d, want 0 after every unsubscribe", b.Subscriptions())
	}
}
