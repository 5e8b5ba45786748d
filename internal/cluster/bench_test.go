package cluster

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/match"
)

// BenchmarkHandoff measures one complete partition handoff — export
// of the journal-encoded registry and content store, the wire frame
// to the new owner, and the replay on the receiving side — for a
// couple of partition sizes. CI publishes the parsed results as the
// BENCH_cluster.json artifact, so handoff latency (the window during
// which publishes to the moving partition stay buffered) is tracked
// per commit alongside the simulation benches.
func BenchmarkHandoff(b *testing.B) {
	for _, size := range []struct {
		name  string
		subs  int
		pages int
		body  int
	}{
		{"subs=16/pages=32", 16, 32, 1 << 10},
		{"subs=128/pages=256", 128, 256, 1 << 10},
	} {
		b.Run(size.name, func(b *testing.B) {
			benchHandoff(b, size.subs, size.pages, size.body)
		})
	}
}

func benchHandoff(b *testing.B, subs, pages, bodyLen int) {
	nodes := benchCluster(b, 2)
	src := nodes[0]

	// Pick a partition the source owns and fill its engine with a
	// registry and content store of the requested size.
	ring := src.Ring()
	owned := ring.OwnedBy(src.NodeID())
	if len(owned) == 0 {
		b.Fatal("source owns no partitions")
	}
	p := owned[0]
	src.mu.Lock()
	eng := src.parts[p]
	src.mu.Unlock()
	if eng == nil {
		b.Fatalf("no engine for owned partition %d", p)
	}
	topic := topicInPartition(ring, p)
	for i := 0; i < subs; i++ {
		if _, err := eng.Subscribe(match.Subscription{
			Proxy:      i % 4,
			Subscriber: fmt.Sprintf("bench-sub-%d", i),
			Topics:     []string{topic},
		}, broker.NotifierFunc(func(broker.Notification) {})); err != nil {
			b.Fatalf("seed subscription: %v", err)
		}
	}
	body := make([]byte, bodyLen)
	for i := 0; i < pages; i++ {
		if _, err := eng.Publish(broker.Content{
			ID:     fmt.Sprintf("bench-page-%d", i),
			Topics: []string{topic},
			Body:   body,
		}); err != nil {
			b.Fatalf("seed page: %v", err)
		}
	}

	// A ring at the current version whose sole member is the receiver:
	// every handoff targets it, and the unchanged version keeps the
	// receiver from adopting the synthetic membership.
	neu := NewRing(ring.Partitions(), DefaultVirtualNodes, []string{nodes[1].NodeID()}, ring.Version())
	ctx := context.Background()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.rebalanceMu.Lock()
		err := src.handoffPartition(ctx, p, eng, neu)
		src.rebalanceMu.Unlock()
		if err != nil {
			b.Fatalf("handoff: %v", err)
		}
	}
}

// BenchmarkRingRoute measures the per-request routing decision: topic
// to partition to owner.
func BenchmarkRingRoute(b *testing.B) {
	members := []string{"n0", "n1", "n2", "n3", "n4"}
	r := NewRing(DefaultPartitions, DefaultVirtualNodes, members, 1)
	topics := make([]string, 64)
	for i := range topics {
		topics[i] = fmt.Sprintf("topic-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := topics[i%len(topics)]
		if r.Owner(r.PartitionOf(t)) == "" {
			b.Fatal("unowned partition")
		}
	}
}

// BenchmarkRingRebuild measures a full ring rebuild — what every
// member pays per membership transition.
func BenchmarkRingRebuild(b *testing.B) {
	members := []string{"n0", "n1", "n2", "n3", "n4"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewRing(DefaultPartitions, DefaultVirtualNodes, members, uint64(i+1))
	}
}

// BenchmarkRelayFanout measures wide fan-out across one relay hop:
// 1 024 subscriptions at the edge node on a topic the other node owns,
// one publish at the owner per iteration, each waited for until the
// edge subscriber has all 1 024 notifications. The ns/notify metric
// covers the owner's match and fan-out, the member-link frame, the
// relay's mapping and fan-out, and the edge client's mapping and
// callback. CI publishes it with the publish-path layer benches, at a
// fixed 2 000 publishes per run (-benchtime=2000x -count=5).
func BenchmarkRelayFanout(b *testing.B) {
	const subs = 1024
	nodes := benchCluster(b, 2)
	owner, edge := nodes[0], nodes[1]
	ring := owner.Ring()
	topic := topicInPartition(ring, ring.OwnedBy(owner.NodeID())[0])
	var got atomic.Int64
	done := make(chan struct{}, 1)
	ctx := context.Background()
	c, err := broker.Dial(ctx, edge.Addr(), broker.WithNotify(func(broker.Notification) {
		if got.Add(1)%subs == 0 {
			done <- struct{}{}
		}
	}))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	for i := 0; i < subs; i++ {
		if _, err := c.Subscribe(ctx, i%8, []string{topic}, nil); err != nil {
			b.Fatal(err)
		}
	}
	body := make([]byte, 256)
	publish := func(v int) {
		matched, err := owner.PublishContext(ctx, broker.Content{ID: "relay-bench", Version: v, Topics: []string{topic}, Body: body})
		if err != nil || matched != subs {
			b.Fatalf("publish %d: matched %d, err %v", v, matched, err)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			b.Fatalf("publish %d: edge subscriber saw %d notifications, want %d", v, got.Load(), v*subs)
		}
	}
	publish(1) // warm the links and the fan-out buffers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		publish(i + 2)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*subs), "ns/notify")
}

// benchCluster starts count converged nodes over loopback with
// heartbeats disabled.
func benchCluster(b *testing.B, count int) []*Node {
	b.Helper()
	peers := map[string]string{}
	lns := map[string]net.Listener{}
	for i := 0; i < count; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatalf("listen: %v", err)
		}
		id := fmt.Sprintf("n%d", i)
		peers[id] = ln.Addr().String()
		lns[id] = ln
	}
	nodes := make([]*Node, count)
	for i := 0; i < count; i++ {
		id := fmt.Sprintf("n%d", i)
		n, err := Start(Config{
			NodeID:            id,
			Addr:              peers[id],
			Listener:          lns[id],
			Peers:             peers,
			Partitions:        8,
			HeartbeatInterval: -1,
			RequestTimeout:    2 * time.Second,
			ForwardTimeout:    8 * time.Second,
			Settle:            10 * time.Millisecond,
		})
		if err != nil {
			b.Fatalf("start %s: %v", id, err)
		}
		nodes[i] = n
		b.Cleanup(func() { _ = n.Close() })
	}
	ctx := context.Background()
	deadline := time.Now().Add(15 * time.Second)
	for {
		for _, n := range nodes {
			n.ProbeOnce(ctx)
		}
		want := nodes[0].Ring()
		ok := len(want.Members()) == count
		for _, n := range nodes[1:] {
			if n.Ring().Version() != want.Version() {
				ok = false
			}
		}
		if ok {
			return nodes
		}
		if time.Now().After(deadline) {
			b.Fatal("bench cluster did not converge")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// topicInPartition finds a topic name hashing into partition p.
func topicInPartition(r *Ring, p int) string {
	for i := 0; ; i++ {
		t := fmt.Sprintf("bench-topic-%d", i)
		if r.PartitionOf(t) == p {
			return t
		}
	}
}
