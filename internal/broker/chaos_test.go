package broker

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pubsubcd/internal/broker/faultnet"
	"pubsubcd/internal/telemetry"
)

// The chaos suite drives the resilient transport through injected
// failures — broker restarts mid-traffic, network partitions during
// publish fan-out, slow and flaky links — and asserts the client heals:
// subscriptions survive, post-recovery notifications all arrive, and
// the reconnect/retry telemetry counters advance. Run it under -race.

// publishUntilAccepted publishes version v of page id through the
// client, retrying transport failures; a "not newer" rejection means an
// earlier attempt landed before its response was lost, which is success.
func publishUntilAccepted(t *testing.T, c *Client, id string, v int, topics []string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := c.Publish(ctx, Content{ID: id, Version: v, Topics: topics, Body: []byte(fmt.Sprintf("%s-v%d", id, v))})
		cancel()
		if err == nil || IsNotNewer(err) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("publish %s v%d never accepted: %v", id, v, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestChaosBrokerRestartMidTraffic(t *testing.T) {
	s, b := startServer(t)
	pubReg, subReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	ctx := context.Background()

	var mu sync.Mutex
	seen := make(map[int]bool) // versions notified
	sub, err := Dial(ctx, s.Addr(),
		WithNotify(func(n Notification) {
			mu.Lock()
			seen[n.Version] = true
			mu.Unlock()
		}),
		WithReconnect(fastBackoff()),
		WithClientTelemetry(subReg))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Subscribe(ctx, 1, []string{"chaos"}, nil); err != nil {
		t.Fatal(err)
	}

	pub, err := Dial(ctx, s.Addr(), WithReconnect(fastBackoff()), WithClientTelemetry(pubReg))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// Traffic with two broker restarts in the middle of the stream.
	version := 0
	for round := 0; round < 2; round++ {
		for i := 0; i < 5; i++ {
			version++
			publishUntilAccepted(t, pub, "stream", version, []string{"chaos"})
		}
		s = restartServer(t, s, b)
		// The publisher proves its reconnect by getting the next publish
		// accepted; the subscriber must be back too before the next
		// restart, or two restarts can fold into one reconnect.
		reconnects := subReg.Counter("transport.client.reconnects")
		waitFor(t, "subscriber reconnect after the restart", func() bool { return reconnects.Value() > int64(round) })
	}

	// Both clients must recover: wait until the subscriber's registry is
	// re-established on the new server, then publish the final batch.
	waitFor(t, "subscriber resubscription after restarts", func() bool { return b.Subscriptions() == 1 })
	finalStart := version
	for i := 0; i < 5; i++ {
		version++
		publishUntilAccepted(t, pub, "stream", version, []string{"chaos"})
	}

	// Zero lost notifications after recovery: every post-recovery
	// version must reach the subscriber.
	waitFor(t, "post-recovery notifications", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for v := finalStart + 1; v <= version; v++ {
			if !seen[v] {
				return false
			}
		}
		return true
	})

	for name, reg := range map[string]*telemetry.Registry{"publisher": pubReg, "subscriber": subReg} {
		if n := reg.Counter("transport.client.reconnects").Value(); n < 2 {
			t.Errorf("%s reconnects = %d, want >= 2 (one per restart)", name, n)
		}
	}
	if n := subReg.Counter("transport.client.resubscribes").Value(); n < 2 {
		t.Errorf("subscriber resubscribes = %d, want >= 2", n)
	}
}

// chaosHarness is a broker served through a fault-injected network.
type chaosHarness struct {
	net    *faultnet.Network
	server *Server
	broker *Broker
}

func newChaosHarness(t *testing.T, seed int64) *chaosHarness {
	t.Helper()
	fn := faultnet.New(seed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := New()
	s, err := NewServer(b, "", WithListener(fn.Listener(ln)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return &chaosHarness{net: fn, server: s, broker: b}
}

func TestChaosPartitionDuringFanout(t *testing.T) {
	h := newChaosHarness(t, 7)
	reg := telemetry.NewRegistry()
	ctx := context.Background()

	var mu sync.Mutex
	var pages []string
	sub, err := Dial(ctx, h.server.Addr(),
		WithNotify(func(n Notification) {
			mu.Lock()
			pages = append(pages, n.PageID)
			mu.Unlock()
		}),
		WithReconnect(fastBackoff()),
		WithDialFunc(h.net.Dial),
		WithClientTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Subscribe(ctx, 1, []string{"t"}, nil); err != nil {
		t.Fatal(err)
	}

	// Sanity: fan-out reaches the subscriber before the partition.
	if _, err := h.broker.Publish(Content{ID: "before", Topics: []string{"t"}, Body: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-partition notification", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(pages) >= 1
	})

	// Partition mid-fan-out: the subscriber's connection is severed and
	// its redials fail until the network heals.
	h.net.Partition()
	if _, err := h.broker.Publish(Content{ID: "during", Topics: []string{"t"}, Body: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	// Give the client time to observe the cut and fail at least one dial.
	waitFor(t, "failed redial during partition", func() bool {
		return reg.Counter("transport.client.reconnect_failures").Value() >= 1
	})
	h.net.Heal()

	// After healing the subscription must be re-established and new
	// fan-outs must reach the subscriber again.
	waitFor(t, "resubscription after heal", func() bool { return h.broker.Subscriptions() == 1 })
	if _, err := h.broker.Publish(Content{ID: "after", Topics: []string{"t"}, Body: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-heal notification", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range pages {
			if p == "after" {
				return true
			}
		}
		return false
	})
	if n := reg.Counter("transport.client.reconnects").Value(); n < 1 {
		t.Errorf("reconnects = %d, want >= 1", n)
	}
}

func TestChaosSlowNetwork(t *testing.T) {
	h := newChaosHarness(t, 11)
	h.net.SetDelay(2 * time.Millisecond)
	ctx := context.Background()
	if _, err := h.broker.Publish(Content{ID: "p", Topics: []string{"t"}, Body: []byte("slow")}); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(ctx, h.server.Addr(), WithDialFunc(h.net.Dial))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.Fetch(ctx, "p")
			if err != nil {
				errs <- err
				return
			}
			if string(got.Body) != "slow" {
				errs <- fmt.Errorf("bad body %q", got.Body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestChaosFlakyWritesRetryToSuccess(t *testing.T) {
	h := newChaosHarness(t, 3)
	reg := telemetry.NewRegistry()
	ctx := context.Background()
	if _, err := h.broker.Publish(Content{ID: "p", Topics: []string{"t"}, Body: []byte("flaky")}); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(ctx, h.server.Addr(),
		WithReconnect(fastBackoff()),
		WithDialFunc(h.net.Dial),
		WithRetryBudget(20),
		WithRequestTimeout(2*time.Second),
		WithClientTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Every write has a 10% chance of severing its connection; the
	// idempotent fetch path must retry through the carnage.
	h.net.SetDropRate(0.10)
	for i := 0; i < 30; i++ {
		fctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		got, err := c.Fetch(fctx, "p")
		cancel()
		if err != nil {
			t.Fatalf("fetch %d failed despite retry budget: %v", i, err)
		}
		if string(got.Body) != "flaky" {
			t.Fatalf("fetch %d returned %q", i, got.Body)
		}
	}
	h.net.SetDropRate(0)
	t.Logf("flaky run: retries=%d reconnects=%d",
		reg.Counter("transport.client.retries").Value(),
		reg.Counter("transport.client.reconnects").Value())
}

// TestChaosBinaryCodecAckedSubsetDelivered runs the chaos publisher
// over the negotiated binary codec: the publisher's network drops
// writes (severing connections mid-request), the subscriber's link is
// clean. Every publish the broker ACKNOWLEDGED must reach the
// subscriber — acked ⊆ delivered — across however many reconnects and
// renegotiations the drops cause.
func TestChaosBinaryCodecAckedSubsetDelivered(t *testing.T) {
	b := New()
	// Two front doors onto one broker: a clean one for the subscriber,
	// a fault-injected one for the publisher.
	cleanSrv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cleanSrv.Close()
	fn := faultnet.New(21)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flakySrv, err := NewServer(b, "", WithListener(fn.Listener(ln)))
	if err != nil {
		t.Fatal(err)
	}
	defer flakySrv.Close()

	ctx := context.Background()
	var mu sync.Mutex
	delivered := make(map[int]bool)
	sub, err := Dial(ctx, cleanSrv.Addr(),
		WithPreferredCodec(BinaryCodec()),
		WithNotify(func(n Notification) {
			mu.Lock()
			delivered[n.Version] = true
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if got := sub.Codec(); got != codecBinary {
		t.Fatalf("subscriber codec = %q, want binary", got)
	}
	if _, err := sub.Subscribe(ctx, 1, []string{"chaos"}, nil); err != nil {
		t.Fatal(err)
	}

	pub, err := Dial(ctx, flakySrv.Addr(),
		WithPreferredCodec(BinaryCodec(), JSONCodec()),
		WithReconnect(fastBackoff()),
		WithDialFunc(fn.Dial),
		WithRequestTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if got := pub.Codec(); got != codecBinary {
		t.Fatalf("publisher codec = %q, want binary", got)
	}

	fn.SetDropRate(0.10)
	var acked []int
	for v := 1; v <= 40; v++ {
		deadline := time.Now().Add(15 * time.Second)
		for {
			pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			_, err := pub.Publish(pctx, Content{
				ID: "stream", Version: v, Topics: []string{"chaos"},
				Body: []byte(fmt.Sprintf("v%d", v)),
			})
			cancel()
			if err == nil || IsNotNewer(err) {
				// An explicit OK — or proof a previous attempt landed
				// before its ack was dropped. Both mean the broker has it.
				acked = append(acked, v)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("version %d never accepted: %v", v, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	fn.SetDropRate(0)

	waitFor(t, "every acked version delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, v := range acked {
			if !delivered[v] {
				return false
			}
		}
		return true
	})
}
