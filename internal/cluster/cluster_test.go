package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/telemetry"
)

// testCluster wires count nodes over loopback TCP with a shared peer
// map. Heartbeats are disabled; tests drive ProbeOnce explicitly so
// membership transitions are deterministic.
type testCluster struct {
	t     *testing.T
	nodes []*Node
	regs  []*telemetry.Registry
	peers map[string]string
	lns   map[string]net.Listener
}

func newTestCluster(t *testing.T, count int, mut func(i int, cfg *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:     t,
		nodes: make([]*Node, count),
		regs:  make([]*telemetry.Registry, count),
		peers: map[string]string{},
		lns:   map[string]net.Listener{},
	}
	for i := 0; i < count; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		id := fmt.Sprintf("n%d", i)
		tc.peers[id] = ln.Addr().String()
		tc.lns[id] = ln
	}
	for i := 0; i < count; i++ {
		tc.start(i, mut)
	}
	return tc
}

func (tc *testCluster) start(i int, mut func(i int, cfg *Config)) *Node {
	tc.t.Helper()
	id := fmt.Sprintf("n%d", i)
	reg := telemetry.NewRegistry()
	cfg := Config{
		NodeID:            id,
		Addr:              tc.peers[id],
		Listener:          tc.lns[id],
		Peers:             tc.peers,
		Partitions:        8,
		Registry:          reg,
		HeartbeatInterval: -1, // manual ProbeOnce
		RequestTimeout:    time.Second,
		ForwardTimeout:    8 * time.Second,
		Settle:            50 * time.Millisecond,
	}
	if mut != nil {
		mut(i, &cfg)
	}
	n, err := Start(cfg)
	if err != nil {
		tc.t.Fatalf("start %s: %v", id, err)
	}
	tc.nodes[i] = n
	tc.regs[i] = reg
	tc.t.Cleanup(func() { _ = n.Close() })
	return n
}

// converge probes until every live node agrees on membership and ring
// version.
func (tc *testCluster) converge(live ...*Node) {
	tc.t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(15 * time.Second)
	for {
		for _, n := range live {
			n.ProbeOnce(ctx)
		}
		if tc.agreed(live) {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range live {
				r := n.Ring()
				tc.t.Logf("%s: ring v%d members %v", n.NodeID(), r.Version(), r.Members())
			}
			tc.t.Fatal("cluster did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (tc *testCluster) agreed(live []*Node) bool {
	want := live[0].Ring()
	for _, n := range live[1:] {
		r := n.Ring()
		if r.Version() != want.Version() {
			return false
		}
		m1, m2 := want.Members(), r.Members()
		if len(m1) != len(m2) {
			return false
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				return false
			}
		}
	}
	// Membership must cover every live node.
	for _, n := range live {
		if !want.HasMember(n.NodeID()) {
			return false
		}
	}
	return true
}

// edgeClient is a plain (non-cluster-aware) broker client attached to
// one node, collecting notifications.
type edgeClient struct {
	c *broker.Client

	mu    sync.Mutex
	pages map[string]int // pageID -> notification count
	wake  chan struct{}
}

func dialEdge(t *testing.T, addr string) *edgeClient {
	t.Helper()
	e := &edgeClient{pages: map[string]int{}, wake: make(chan struct{}, 1)}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := broker.Dial(ctx, addr,
		broker.WithReconnect(broker.BackoffPolicy{Initial: 10 * time.Millisecond, Max: 100 * time.Millisecond}),
		broker.WithNotify(func(n broker.Notification) {
			e.mu.Lock()
			e.pages[n.PageID]++
			e.mu.Unlock()
			select {
			case e.wake <- struct{}{}:
			default:
			}
		}),
	)
	if err != nil {
		t.Fatalf("dial edge %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = c.Close() })
	e.c = c
	return e
}

func (e *edgeClient) seen(pageID string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pages[pageID] > 0
}

// waitFor blocks until every page in want has been notified at least
// once.
func (e *edgeClient) waitFor(t *testing.T, timeout time.Duration, want ...string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		missing := ""
		for _, p := range want {
			if !e.seen(p) {
				missing = p
				break
			}
		}
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("notification for %q never arrived", missing)
		}
		select {
		case <-e.wake:
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestClusterRoutingAcrossNodes(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.converge(tc.nodes...)

	// Every topic partition must have exactly one owner, and all three
	// members must carry load.
	r := tc.nodes[0].Ring()
	owners := map[string]int{}
	for p := 0; p < r.Partitions(); p++ {
		owners[r.Owner(p)]++
	}
	if len(owners) != 3 {
		t.Fatalf("partition spread %v, want all 3 members", owners)
	}

	// Subscribe through n2, publish through n0 and n1: notifications
	// must arrive regardless of which member owns the topics.
	sub := dialEdge(t, tc.nodes[2].Addr())
	ctx := context.Background()
	if _, err := sub.c.Subscribe(ctx, 1, []string{"alpha", "beta"}, nil); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	kw := dialEdge(t, tc.nodes[1].Addr())
	if _, err := kw.c.Subscribe(ctx, 2, nil, []string{"golang"}); err != nil {
		t.Fatalf("keyword subscribe: %v", err)
	}

	pub0 := dialEdge(t, tc.nodes[0].Addr())
	pub1 := dialEdge(t, tc.nodes[1].Addr())
	pages := []broker.Content{
		{ID: "page-a", Topics: []string{"alpha"}, Body: []byte("A")},
		{ID: "page-b", Topics: []string{"beta"}, Body: []byte("B")},
		{ID: "page-k", Topics: []string{"gamma"}, Keywords: []string{"golang"}, Body: []byte("K")},
	}
	for i, c := range pages {
		cl := pub0
		if i%2 == 1 {
			cl = pub1
		}
		if _, err := cl.c.Publish(ctx, c); err != nil {
			t.Fatalf("publish %s: %v", c.ID, err)
		}
	}
	sub.waitFor(t, 5*time.Second, "page-a", "page-b")
	kw.waitFor(t, 5*time.Second, "page-k")
	if sub.seen("page-k") {
		t.Fatal("topic subscriber notified for non-matching page-k")
	}

	// Fetch must find content from any member, wherever it lives.
	for i, n := range tc.nodes {
		got, err := n.FetchContext(ctx, "page-a")
		if err != nil {
			t.Fatalf("fetch via n%d: %v", i, err)
		}
		if string(got.Body) != "A" {
			t.Fatalf("fetch via n%d: body %q", i, got.Body)
		}
	}

	// The cross-node paths must actually have been exercised.
	forwarded := int64(0)
	for _, reg := range tc.regs {
		snap := reg.Snapshot()
		forwarded += snap.Counters[`cluster.publishes{route="forwarded"}`]
	}
	if forwarded == 0 {
		t.Fatal("no publish was forwarded between members")
	}
}

func TestClusterStaleRingRejected(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	tc.converge(tc.nodes...)
	n := tc.nodes[0]
	cur := n.Ring().Version()
	if err := n.CheckRing(cur-1, -1); !broker.IsStaleRing(err) {
		t.Fatalf("CheckRing(stale) = %v, want stale-ring error", err)
	}
	if err := n.CheckRing(cur, -1); err != nil {
		t.Fatalf("CheckRing(current) = %v", err)
	}
	foreign := -1
	for p := 0; p < n.Ring().Partitions(); p++ {
		if n.Ring().Owner(p) != n.NodeID() {
			foreign = p
			break
		}
	}
	if foreign == -1 {
		t.Skip("node owns every partition")
	}
	if err := n.CheckRing(cur, foreign); !broker.IsStaleRing(err) {
		t.Fatalf("CheckRing(foreign partition) = %v, want stale-ring error", err)
	}
}

// TestClusterJoinLeaveCycle is the 3-node end-to-end: a cluster of
// two takes traffic, a third member joins (journaled handoffs move
// partitions to it), then retires again — and the subscriber acked at
// the start observes every acked publish across both transitions.
func TestClusterJoinLeaveCycle(t *testing.T) {
	dir := t.TempDir()
	tc := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.DataDir = fmt.Sprintf("%s/%s", dir, cfg.NodeID)
	})
	joiner := tc.nodes[2]
	// Take the joiner out first so the cycle starts as a 2-cluster.
	if err := joiner.Close(); err != nil {
		t.Fatalf("pre-close joiner: %v", err)
	}
	base := []*Node{tc.nodes[0], tc.nodes[1]}
	tc.converge(base...)

	ctx := context.Background()
	sub := dialEdge(t, tc.nodes[0].Addr())
	topics := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	if _, err := sub.c.Subscribe(ctx, 1, topics, nil); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	pub := dialEdge(t, tc.nodes[0].Addr())
	var acked []string
	publish := func(tag string, n int) {
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("%s-%d", tag, i)
			c := broker.Content{ID: id, Topics: []string{topics[i%len(topics)]}, Body: []byte(tag)}
			if _, err := pub.c.Publish(ctx, c); err != nil {
				t.Fatalf("publish %s: %v", id, err)
			}
			acked = append(acked, id)
		}
	}

	publish("pre", 16)
	sub.waitFor(t, 10*time.Second, acked...)

	// Join: restart n2 and converge to three members.
	ln, err := net.Listen("tcp", tc.peers["n2"])
	if err != nil {
		t.Fatalf("rebind joiner listener: %v", err)
	}
	tc.lns["n2"] = ln
	joiner = tc.start(2, func(i int, cfg *Config) {
		cfg.DataDir = fmt.Sprintf("%s/%s", dir, cfg.NodeID)
	})
	tc.converge(tc.nodes[0], tc.nodes[1], joiner)
	if len(joiner.Ring().OwnedBy("n2")) == 0 {
		t.Fatal("joiner owns no partitions after join")
	}

	publish("joined", 16)
	sub.waitFor(t, 10*time.Second, acked...)

	// The join must have moved state via journaled handoff.
	sent := int64(0)
	for _, reg := range tc.regs[:2] {
		snap := reg.Snapshot()
		sent += snap.Counters["cluster.handoffs_sent"]
	}
	if sent == 0 {
		t.Fatal("join produced no handoffs")
	}
	jsnap := tc.regs[2].Snapshot()
	if jsnap.Counters["cluster.handoffs_received"] == 0 {
		t.Fatal("joiner received no handoffs")
	}
	if jsnap.Histograms["cluster.handoff_ns"].Count == 0 {
		t.Fatal("cluster.handoff_ns recorded no samples on the joiner")
	}

	// Content handed off with the partitions must remain fetchable
	// from the new owner.
	for _, id := range acked {
		if _, err := joiner.FetchContext(ctx, id); err != nil {
			t.Fatalf("fetch %s via joiner: %v", id, err)
		}
	}

	// Leave: n2 retires gracefully; the survivors re-adopt its
	// partitions through handoff, and traffic continues.
	if err := joiner.Retire(ctx); err != nil {
		t.Fatalf("retire: %v", err)
	}
	tc.converge(tc.nodes[0], tc.nodes[1])
	for _, n := range base {
		if n.Ring().HasMember("n2") {
			t.Fatalf("%s still lists retired n2 at ring v%d", n.NodeID(), n.Ring().Version())
		}
	}

	publish("post", 16)
	sub.waitFor(t, 10*time.Second, acked...)

	// Everything ever acked is fetchable from the survivors.
	for _, id := range acked {
		if _, err := tc.nodes[1].FetchContext(ctx, id); err != nil {
			t.Fatalf("fetch %s after retirement: %v", id, err)
		}
	}
}
