package broker

import (
	"errors"
	"fmt"
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

func (r *recordingNotifier) Notify(n Notification) {
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
