package broker

import (
	"context"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"pubsubcd/internal/match"
	"pubsubcd/internal/telemetry"
)

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBrokerTelemetryCountersAndTrace(t *testing.T) {
	b := New()
	reg := telemetry.NewRegistry()
	b.EnableTelemetry(reg)
	spans := telemetry.NewSpanCollector(telemetry.CollectorOptions{})
	traced := telemetry.WithSpanCollector(context.Background(), spans)

	var notified int
	id, err := b.Subscribe(match.Subscription{Proxy: 2, Topics: []string{"news"}},
		NotifierFunc(func(Notification) { notified++ }))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AttachProxy(2, pushSinkFunc(func(Content, int) {})); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishContext(traced, Content{ID: "p1", Version: 1, Topics: []string{"news"}, Body: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(Content{ID: "p1", Version: 1, Topics: []string{"news"}}); err == nil {
		t.Fatal("stale republish should error")
	}
	if _, err := b.FetchContext(traced, "p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Fetch("ghost"); err == nil {
		t.Fatal("fetch of unknown page should error")
	}
	if err := b.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"broker.publishes":      1,
		"broker.publish_errors": 1,
		"broker.notifications":  1,
		"broker.pushes":         1,
		"broker.fetches":        2,
		"broker.fetch_misses":   1,
		"broker.subscribes":     1,
		"broker.unsubscribes":   1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauges["broker.live_subscriptions"]; got != 0 {
		t.Errorf("live_subscriptions = %d after unsubscribe, want 0", got)
	}
	for _, h := range []string{"broker.publish_ns", "broker.match_ns", "broker.fetch_ns"} {
		if snap.Histograms[h].Count == 0 {
			t.Errorf("%s saw no samples", h)
		}
	}
	if notified != 1 {
		t.Errorf("notifier invoked %d times, want 1", notified)
	}

	// The spans retained for p1 must carry its publish→match→push and
	// fetch causality: the publish trace (match and push as children of
	// the publish, in that order) followed by the fetch trace.
	var p1 []*telemetry.TraceData
	for _, td := range spans.Traces() {
		if td.HasAttr("page", "p1") {
			p1 = append(p1, td)
		}
	}
	if len(p1) != 2 {
		t.Fatalf("retained %d traces for p1, want publish and fetch", len(p1))
	}
	sort.Slice(p1, func(i, j int) bool { return p1[i].Start.Before(p1[j].Start) })
	pub, fetch := p1[0], p1[1]
	var names []string
	for _, sd := range pub.Spans {
		names = append(names, sd.Name)
		if sd.Name != "broker.publish" && sd.ParentID != pub.Spans[0].SpanID {
			t.Errorf("%s is not a child of the publish span", sd.Name)
		}
	}
	if got := strings.Join(names, " "); got != "broker.publish broker.match broker.push" {
		t.Errorf("publish trace spans = %q, want publish, match, push", got)
	}
	if push := pub.Spans[len(pub.Spans)-1]; !push.HasAttr("proxy", "2") {
		t.Errorf("push span attrs = %v, want proxy=2", push.Attrs)
	}
	if fetch.Root != "broker.fetch" || len(fetch.Spans) != 1 {
		t.Errorf("fetch trace = %s with %d spans, want one broker.fetch", fetch.Root, len(fetch.Spans))
	}
	for _, td := range p1 {
		if !td.Spans[0].HasAttr("page", "p1") {
			t.Errorf("%s root span attrs = %v, want page=p1", td.Root, td.Spans[0].Attrs)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestPublishAllocsIndependentOfFanout pins the telemetry-on publish
// path: allocations per publish must not grow with the number of
// matched subscribers, nor with push sinks attached to the proxies
// they belong to.
func TestPublishAllocsIndependentOfFanout(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so pooled fan-out scratch is reallocated")
	}
	allocs := func(subs, sinks int) float64 {
		b := New()
		b.EnableTelemetry(telemetry.NewRegistry())
		var pushes int
		for p := 0; p < sinks; p++ {
			if err := b.AttachProxy(p, pushSinkFunc(func(Content, int) { pushes++ })); err != nil {
				t.Fatal(err)
			}
		}
		nop := NotifierFunc(func(Notification) {})
		for i := 0; i < subs; i++ {
			if _, err := b.Subscribe(match.Subscription{Proxy: i % 8, Topics: []string{"news"}}, nop); err != nil {
				t.Fatal(err)
			}
		}
		c := Content{ID: "p", Topics: []string{"news"}, Body: []byte("x")}
		n := testing.AllocsPerRun(200, func() {
			c.Version++
			if _, err := b.Publish(c); err != nil {
				t.Fatal(err)
			}
		})
		if want := 201 * min(subs, sinks); pushes != want {
			t.Fatalf("%d subscribers over %d sinks: %d pushes, want %d", subs, sinks, pushes, want)
		}
		return n
	}
	one := allocs(1, 0)
	for _, n := range []int{64, 512} {
		for _, sinks := range []int{0, 8} {
			if got := allocs(n, sinks); got != one {
				t.Errorf("publish to %d subscribers with %d push sinks allocates %.1f times, want %.1f as with 1 and none", n, sinks, got, one)
			}
		}
	}
}

// pushSinkFunc adapts a function to PushSink for tests.
type pushSinkFunc func(c Content, matched int)

func (f pushSinkFunc) Push(c Content, matched int) { f(c, matched) }

func TestTransportMetricsRoundTrip(t *testing.T) {
	b := New()
	reg := telemetry.NewRegistry()
	s, err := NewServer(b, "127.0.0.1:0", WithServerTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	clientReg := telemetry.NewRegistry()
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr(), WithNotify(func(Notification) {}), WithClientTelemetry(clientReg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	if _, err := c.Subscribe(ctx, 0, []string{"t"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish(ctx, Content{ID: "p", Topics: []string{"t"}, Body: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(ctx, "p"); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["transport.server.conns_opened"]; got != 1 {
		t.Errorf("conns_opened = %d, want 1", got)
	}
	for _, name := range []string{
		"transport.server.recv.subscribe",
		"transport.server.recv.publish",
		"transport.server.recv.fetch",
	} {
		if got := snap.Counters[name]; got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
	if snap.Counters["transport.server.bytes_in"] == 0 {
		t.Error("server bytes_in stayed zero")
	}
	if snap.Counters["transport.server.bytes_out"] == 0 {
		t.Error("server bytes_out stayed zero")
	}
	// The subscribing connection received its own notification.
	waitFor(t, "notify send counter", func() bool {
		return reg.Snapshot().Counters["transport.server.notify_sends"] == 1
	})
	for _, h := range []string{
		"transport.server.handle_ns.subscribe",
		"transport.server.handle_ns.publish",
		"transport.server.handle_ns.fetch",
	} {
		if snap.Histograms[h].Count != 1 {
			t.Errorf("%s count = %d, want 1", h, snap.Histograms[h].Count)
		}
	}

	csnap := clientReg.Snapshot()
	if csnap.Counters["transport.client.bytes_out"] == 0 {
		t.Error("client bytes_out stayed zero")
	}
	if csnap.Counters["transport.client.bytes_in"] == 0 {
		t.Error("client bytes_in stayed zero")
	}
	for _, h := range []string{
		"transport.client.rtt_ns.subscribe",
		"transport.client.rtt_ns.publish",
		"transport.client.rtt_ns.fetch",
	} {
		if csnap.Histograms[h].Count != 1 {
			t.Errorf("%s count = %d, want 1", h, csnap.Histograms[h].Count)
		}
	}

	_ = c.Close()
	waitFor(t, "connection close accounting", func() bool {
		s := reg.Snapshot()
		return s.Counters["transport.server.conns_closed"] == 1 &&
			s.Gauges["transport.server.active_conns"] == 0
	})
}

func TestServerIdleTimeoutClosesSilentConnection(t *testing.T) {
	b := New()
	reg := telemetry.NewRegistry()
	s, err := NewServer(b, "127.0.0.1:0",
		WithIdleTimeout(30*time.Millisecond),
		WithServerTelemetry(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	ctx := context.Background()
	c, err := Dial(ctx, s.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	// Stay completely silent: the server must cut the connection and
	// account the idle timeout.
	waitFor(t, "idle timeout disconnect", func() bool {
		snap := reg.Snapshot()
		return snap.Counters["transport.server.read_timeouts"] >= 1 &&
			snap.Counters["transport.server.conns_closed"] >= 1
	})
}

func TestServerBadMessageCounted(t *testing.T) {
	b := New()
	reg := telemetry.NewRegistry()
	s, err := NewServer(b, "127.0.0.1:0", WithServerTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bad message counter", func() bool {
		return reg.Snapshot().Counters["transport.server.bad_messages"] == 1
	})
}
