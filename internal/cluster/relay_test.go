package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/match"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// frameCounter counts the notify frames, and the notifications they
// carry, that a client connection reads. It parses a copy of the
// inbound stream: the JSON hello response, then frames in whichever
// codec the exchange chose.
type frameCounter struct {
	mu            sync.Mutex
	buf           []byte
	codec         broker.Codec // nil until the first frame after the hello
	helloDone     bool
	frames, notes int
}

func (fc *frameCounter) feed(p []byte) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.buf = append(fc.buf, p...)
	for {
		if !fc.helloDone {
			i := bytes.IndexByte(fc.buf, '\n')
			if i < 0 {
				return
			}
			fc.buf, fc.helloDone = fc.buf[i+1:], true
			continue
		}
		if fc.codec == nil {
			if len(fc.buf) == 0 {
				return
			}
			fc.codec = broker.BinaryCodec()
			if fc.buf[0] == '{' {
				fc.codec = broker.JSONCodec()
			}
		}
		r := bufio.NewReader(bytes.NewReader(fc.buf))
		payload, err := fc.codec.ReadFrame(r, nil, broker.DefaultMaxFrame)
		if err != nil {
			return // incomplete: wait for more bytes
		}
		fc.buf = fc.buf[len(fc.buf)-r.Buffered():]
		var m broker.Message
		if fc.codec.DecodeFrame(payload, &m) == nil && m.Type == "notify" && m.Notification != nil {
			fc.frames++
			fc.notes += 1 + len(m.MoreSubIDs)
		}
	}
}

func (fc *frameCounter) counts() (frames, notes int) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.frames, fc.notes
}

// dial is a dial function whose connections feed fc.
func (fc *frameCounter) dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, fc: fc}, nil
}

type countedConn struct {
	net.Conn
	fc *frameCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.fc.feed(p[:n])
	}
	return n, err
}

// topicOwnedBy returns a topic whose partition node owns.
func topicOwnedBy(t *testing.T, r *Ring, node string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		topic := fmt.Sprintf("relay-%d", i)
		if r.Owner(r.PartitionOf(topic)) == node {
			return topic
		}
	}
	t.Fatalf("no topic owned by %s", node)
	return ""
}

// In a converged two-node cluster, a publish matching 512 edge
// subscriptions at n1, owned at n0, crosses the member link as one
// notify frame and reaches the edge subscriber as one frame.
func TestRelayIsOneFramePerHop(t *testing.T) {
	var link frameCounter
	tc := newTestCluster(t, 2, func(i int, cfg *Config) {
		if i == 1 {
			cfg.DialFunc = link.dial
		}
	})
	tc.converge(tc.nodes...)
	owner, edge := tc.nodes[0], tc.nodes[1]
	topic := topicOwnedBy(t, owner.Ring(), owner.NodeID())

	var sub frameCounter
	var mu sync.Mutex
	got := map[int64]int{}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := broker.Dial(ctx, edge.Addr(), broker.WithDialFunc(sub.dial),
		broker.WithNotify(func(n broker.Notification) {
			mu.Lock()
			got[n.SubscriptionID]++
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const subs, publishes = 512, 3
	for i := 0; i < subs; i++ {
		if _, err := c.Subscribe(ctx, i, []string{topic}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for v := 1; v <= publishes; v++ {
		matched, err := owner.PublishContext(ctx, broker.Content{ID: "relay-page", Version: v, Topics: []string{topic}})
		if err != nil || matched != subs {
			t.Fatalf("publish %d: matched %d, err %v", v, matched, err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, notes := sub.counts(); notes == v*subs {
				break
			}
			if time.Now().After(deadline) {
				_, notes := sub.counts()
				t.Fatalf("publish %d: edge subscriber saw %d notifications, want %d", v, notes, v*subs)
			}
			time.Sleep(time.Millisecond)
		}
		for _, hop := range []struct {
			name string
			fc   *frameCounter
		}{{"member link", &link}, {"edge subscriber", &sub}} {
			if frames, notes := hop.fc.counts(); frames != v || notes != v*subs {
				t.Fatalf("after publish %d, %s: %d notifications in %d frames, want %d in %d", v, hop.name, notes, frames, v*subs, v)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != subs {
		t.Fatalf("%d subscriptions notified, want %d", len(got), subs)
	}
	for id, n := range got {
		if n != publishes {
			t.Fatalf("subscription %d notified %d times, want %d", id, n, publishes)
		}
	}
}

// captureBackend is a broker.Backend that records the notifier of each
// subscription; the rest is inert.
type captureBackend struct {
	mu        sync.Mutex
	notifiers []broker.Notifier
}

func (b *captureBackend) SubscribeContext(_ context.Context, _ match.Subscription, n broker.Notifier) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.notifiers = append(b.notifiers, n)
	return int64(len(b.notifiers)), nil
}

func (b *captureBackend) Unsubscribe(int64) error { return nil }

func (b *captureBackend) PublishContext(context.Context, broker.Content) (int, error) {
	return 0, nil
}

func (b *captureBackend) FetchContext(context.Context, string) (broker.Content, error) {
	return broker.Content{}, broker.ErrUnknownPage
}

// TestFanoutRunZeroAlloc: relaying a 1 024-ID notify frame —
// memberLink.onNotify mapping the link IDs to edge routes and fanning
// the routes out as one run on the edge connection, whose flusher
// encodes it — allocates nothing in the steady state, on an edge
// connection that coalesces (one frame) and on one that does not (a
// frame per notification).
func TestFanoutRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	be := &captureBackend{}
	srv, err := broker.NewServer(be, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i, caps := range [][]string{{"coalesce"}, nil} {
		// An edge connection: a raw peer that negotiates binary, with
		// or without coalescing, subscribes once, then discards what it
		// reads.
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := &broker.Message{Type: "hello", Seq: 1, Codecs: []string{"binary"}, Caps: caps}
		frame, _ := broker.JSONCodec().AppendFrame(nil, hello)
		frame, _ = broker.BinaryCodec().AppendFrame(frame, &broker.Message{Type: "subscribe", Seq: 2, Topics: []string{"t"}})
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		go func() { _, _ = io.Copy(io.Discard, conn) }()
		deadline := time.Now().Add(5 * time.Second)
		for {
			be.mu.Lock()
			ready := len(be.notifiers) == i+1
			be.mu.Unlock()
			if ready {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the edge subscription never arrived")
			}
			time.Sleep(time.Millisecond)
		}

		l := &memberLink{}
		ids := make([]int64, 1024)
		for j := range ids {
			ids[j] = int64(7000 + j)
			l.track(ids[j], &edgeSub{id: int64(100 + j), notifier: be.notifiers[i]})
		}
		relay := func() {
			l.onNotify(context.Background(), broker.Notification{PageID: "p", Version: 1, SubscriptionID: ids[0]}, ids)
		}
		relay() // grow the buffers
		if allocs := testing.AllocsPerRun(50, relay); allocs != 0 {
			t.Fatalf("caps %v: relaying a %d-ID frame: %.1f allocations, want 0", caps, len(ids), allocs)
		}
	}
}
