package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/broker/faultnet"
	"pubsubcd/internal/telemetry"
)

// TestClusterChaosKillMidTraffic kills a member mid-traffic — its
// listener sits behind a faultnet network that is partitioned without
// warning — and asserts the tentpole invariant: every publish acked
// to the publisher is delivered to the subscriber whose subscription
// was acked before the fault. Publishes targeting the dead member's
// partitions must buffer in the forwarding layer through failure
// detection, adoption and the settle quarantine, then land on the new
// owner after the subscriber's edge router has re-bound.
func TestClusterChaosKillMidTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test takes seconds")
	}
	fnet := faultnet.New(0xC1A05)

	peers := map[string]string{}
	lns := map[string]net.Listener{}
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		id := fmt.Sprintf("n%d", i)
		peers[id] = ln.Addr().String()
		if id == "n2" {
			lns[id] = fnet.Listener(ln)
		} else {
			lns[id] = ln
		}
	}

	nodes := make([]*Node, 3)
	regs := make([]*telemetry.Registry, 3)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("n%d", i)
		regs[i] = telemetry.NewRegistry()
		n, err := Start(Config{
			NodeID:            id,
			Addr:              peers[id],
			Listener:          lns[id],
			Peers:             peers,
			Partitions:        8,
			Registry:          regs[i],
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatMisses:   3,
			// Generous per-request timeout: under the race detector a
			// loaded-but-alive peer can take hundreds of milliseconds
			// to answer, and a spuriously expelled peer makes the test
			// exercise re-admission instead of the kill path.
			RequestTimeout: 2 * time.Second,
			ForwardTimeout: 20 * time.Second,
			Settle:         time.Second,
		})
		if err != nil {
			t.Fatalf("start %s: %v", id, err)
		}
		nodes[i] = n
		t.Cleanup(func() { _ = n.Close() })
	}

	waitAgreed := func(live ...*Node) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			ok := true
			want := live[0].Ring()
			for _, n := range live {
				r := n.Ring()
				if r.Version() != want.Version() || len(r.Members()) != len(live) || !r.HasMember(n.NodeID()) {
					ok = false
					break
				}
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				for _, n := range nodes {
					r := n.Ring()
					n.mu.Lock()
					t.Logf("%s: ring v%d members %v alive %v misses %v floor %d", n.NodeID(),
						r.Version(), r.Members(), n.alive, n.misses, n.versionFloor.Load())
					n.mu.Unlock()
				}
				t.Fatal("cluster did not converge")
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitAgreed(nodes...)

	// Subscriber and publisher both hang off n0 — the surviving edge.
	topics := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	sub := dialEdge(t, nodes[0].Addr())
	ctx := context.Background()
	if _, err := sub.c.Subscribe(ctx, 1, topics, nil); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	pub := dialEdge(t, nodes[0].Addr())

	var mu sync.Mutex
	var acked []string
	publishRange := func(tag string, from, to int) {
		for i := from; i < to; i++ {
			id := fmt.Sprintf("%s-%d", tag, i)
			c := broker.Content{ID: id, Topics: []string{topics[i%len(topics)]}, Body: []byte(tag)}
			pctx, cancel := context.WithTimeout(ctx, 25*time.Second)
			_, err := pub.c.Publish(pctx, c)
			cancel()
			if err != nil && !broker.IsNotNewer(err) {
				// Not acked: the publisher owes a retry, the cluster
				// owes nothing. (The transport's own retry can surface
				// a duplicate-version rejection for an applied
				// publish; that IS an ack.)
				t.Logf("publish %s not acked: %v", id, err)
				continue
			}
			mu.Lock()
			acked = append(acked, id)
			mu.Unlock()
		}
	}

	// Steady state before the fault.
	publishRange("pre", 0, 24)

	// Kill n2 mid-traffic: partition its network while a publisher
	// burst is in flight, then crash the process.
	done := make(chan struct{})
	go func() {
		defer close(done)
		publishRange("mid", 0, 48)
	}()
	time.Sleep(30 * time.Millisecond)
	fnet.Partition()
	nodes[2].Kill()
	<-done

	// The survivors must expel n2 and re-own its partitions.
	waitAgreed(nodes[0], nodes[1])

	// Traffic after the rebalance.
	publishRange("post", 0, 24)

	mu.Lock()
	want := append([]string(nil), acked...)
	mu.Unlock()
	if len(want) < 90 {
		t.Fatalf("only %d publishes acked, expected at least 90", len(want))
	}
	sub.waitFor(t, 30*time.Second, want...)

	// The failure path must actually have been taken.
	failures, rebalances := int64(0), int64(0)
	for _, reg := range regs[:2] {
		snap := reg.Snapshot()
		failures += snap.Counters["cluster.peer_failures"]
		rebalances += snap.Counters["cluster.rebalances"]
	}
	if failures == 0 {
		t.Fatal("no peer failure was detected")
	}
	if rebalances == 0 {
		t.Fatal("no rebalance ran")
	}
}
