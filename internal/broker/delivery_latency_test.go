package broker

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"pubsubcd/internal/telemetry"
)

// TestPublishedAtRoundTripsBothCodecs pins the wire contract of the
// PublishedAt field: both codecs carry it, and frames without it decode
// to 0 (the "sender predates the field" reading).
func TestPublishedAtRoundTripsBothCodecs(t *testing.T) {
	for _, codec := range []Codec{JSONCodec(), BinaryCodec()} {
		in := Message{
			Type:         msgNotify,
			PublishedAt:  123_456_789,
			Trace:        "0123456789abcdef0123456789abcdef-0123456789abcdef",
			Notification: &Notification{PageID: "p1", Version: 3, Size: 512, SubscriptionID: 9},
		}
		frame, err := codec.AppendFrame(nil, &in)
		if err != nil {
			t.Fatalf("%s: encode: %v", codec.Name(), err)
		}
		payload := frame
		if codec.Name() == codecBinary {
			payload = frame[4:] // strip the length prefix
		} else {
			payload = frame[:len(frame)-1] // strip the newline
		}
		var out Message
		if err := codec.DecodeFrame(payload, &out); err != nil {
			t.Fatalf("%s: decode: %v", codec.Name(), err)
		}
		if out.PublishedAt != in.PublishedAt {
			t.Errorf("%s: PublishedAt = %d, want %d", codec.Name(), out.PublishedAt, in.PublishedAt)
		}

		bare := Message{Type: msgNotify, Notification: &Notification{PageID: "p2"}}
		frame, err = codec.AppendFrame(nil, &bare)
		if err != nil {
			t.Fatalf("%s: encode bare: %v", codec.Name(), err)
		}
		payload = frame
		if codec.Name() == codecBinary {
			payload = frame[4:]
		} else {
			payload = frame[:len(frame)-1]
		}
		if err := codec.DecodeFrame(payload, &out); err != nil {
			t.Fatalf("%s: decode bare: %v", codec.Name(), err)
		}
		if out.PublishedAt != 0 {
			t.Errorf("%s: bare PublishedAt = %d, want 0", codec.Name(), out.PublishedAt)
		}
	}
}

// TestDeliveryLatencyClockSkewSafe drives notifications through a
// faultnet connection with injected write delay and proves the
// delivery-latency accounting cannot produce negative or absurd
// samples: PublishedAt is an elapsed duration stamped entirely on the
// broker's monotonic clock (never a cross-machine timestamp
// difference), so receiver clock skew — simulated here by the injected
// delay shifting when frames arrive — does not enter the measurement.
func TestDeliveryLatencyClockSkewSafe(t *testing.T) {
	h := newChaosHarness(t, 31)
	serverReg := telemetry.NewRegistry()
	h.broker.EnableTelemetry(serverReg)
	// Re-serve through a telemetered server: the harness server predates
	// the registry, so build our own on the same broker.
	s2, err := NewServer(h.broker, "127.0.0.1:0", WithServerTelemetry(serverReg))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	// 30ms of injected latency on every write: delivery observably lags
	// the publish, the way a skewed or slow network would make it.
	h.net.SetDelay(30 * time.Millisecond)

	clientReg := telemetry.NewRegistry()
	ctx := context.Background()
	var mu sync.Mutex
	delivered := 0
	sub, err := Dial(ctx, s2.Addr(),
		WithNotify(func(n Notification) {
			mu.Lock()
			delivered++
			mu.Unlock()
		}),
		WithDialFunc(h.net.Dial),
		WithClientTelemetry(clientReg))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if _, err := sub.Subscribe(ctx, 1, []string{"t"}, nil); err != nil {
		t.Fatal(err)
	}

	const publishes = 5
	for i := 0; i < publishes; i++ {
		if _, err := h.broker.Publish(Content{ID: "p", Version: i + 1, Topics: []string{"t"}, Body: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all notifications delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered >= publishes
	})

	snap := clientReg.Snapshot()
	var hs telemetry.HistogramSnapshot
	found := false
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "transport.client.delivery_latency_ns{") {
			hs, found = h, true
			break
		}
	}
	if !found {
		t.Fatalf("no delivery_latency_ns series in client snapshot: %v", snap.Histograms)
	}
	if hs.Count < publishes {
		t.Errorf("delivery latency samples = %d, want >= %d", hs.Count, publishes)
	}
	// No negative samples (the histogram would clamp them to the first
	// bucket with a zero-ish sum) and no absurd ones: every sample must
	// be a real broker-side duration, bounded well under the test's
	// lifetime even with the injected delay queueing frames.
	if hs.Sum <= 0 {
		t.Errorf("delivery latency sum = %v, want > 0 (negative or zero samples)", hs.Sum)
	}
	if mean := hs.Mean(); mean < 0 || mean > float64(10*time.Second) {
		t.Errorf("delivery latency mean = %v ns, want within (0, 10s)", mean)
	}
	if q := hs.Quantile(0.99); q > (30 * time.Second).Nanoseconds() {
		t.Errorf("delivery latency p99 = %v ns, absurd sample leaked through", q)
	}

	// The broker-side stage timers decompose the same budget.
	ss := serverReg.Snapshot()
	for _, stage := range []string{
		"broker.stage_ns.ingress_to_match",
		"transport.server.stage_ns.fanout_enqueue",
		"transport.server.stage_ns.enqueue_to_flush",
	} {
		h, ok := ss.Histograms[stage]
		if !ok || h.Count == 0 {
			t.Errorf("stage timer %s has no samples", stage)
			continue
		}
		if h.Sum < 0 {
			t.Errorf("stage timer %s sum = %v, negative", stage, h.Sum)
		}
	}
}

// TestNotifyContextCarriesUpstreamIngress checks the relay half of the
// latency budget: a client hands its WithNotifyContext callback the
// notification with the upstream publish's elapsed time re-based onto
// this process's clock, so a broker relaying it (a cluster member link)
// stamps its own frames with the whole budget, not only its share.
func TestNotifyContextCarriesUpstreamIngress(t *testing.T) {
	b := New()
	s, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := make(chan Notification, 1)
	ctx := context.Background()
	c, err := Dial(ctx, s.Addr(), WithNotifyContext(func(_ context.Context, n Notification, _ []int64) {
		got <- n
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Subscribe(ctx, 1, []string{"t"}, nil); err != nil {
		t.Fatal(err)
	}
	before := time.Now()
	if _, err := b.Publish(Content{ID: "p", Version: 1, Topics: []string{"t"}, Body: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n.ingress.Before(before) || n.ingress.After(time.Now()) {
			t.Errorf("relayed ingress %v, want between the publish call (%v) and now", n.ingress, before)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no notification")
	}
}
