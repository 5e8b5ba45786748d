// Cluster runs a three-member sharded broker fleet in one process.
// Topics hash onto a fixed partition space and a consistent-hash ring
// assigns each partition to a member; plain broker clients talk to
// any member, and the cluster routes publishes, subscriptions, and
// fetches to the partition owners transparently. The example then
// retires one member live: its partitions move to the survivors via
// journaled handoff, and the subscriber — attached to a different
// member the whole time — keeps receiving notifications.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"pubsubcd"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Bind every member's listener first so the full peer map is known
	// before any member starts.
	ids := []string{"alpha", "beta", "gamma"}
	peers := map[string]string{}
	lns := map[string]net.Listener{}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		peers[id] = ln.Addr().String()
		lns[id] = ln
	}

	nodes := map[string]*pubsubcd.ClusterNode{}
	for _, id := range ids {
		n, err := pubsubcd.StartClusterNode(pubsubcd.ClusterConfig{
			NodeID:            id,
			Addr:              peers[id],
			Listener:          lns[id],
			Peers:             peers,
			Partitions:        8,
			HeartbeatInterval: 100 * time.Millisecond,
			HeartbeatMisses:   2,
		})
		if err != nil {
			return err
		}
		defer n.Close()
		nodes[id] = n
	}
	if err := waitAgreed(len(ids), nodes["alpha"], nodes["beta"], nodes["gamma"]); err != nil {
		return err
	}

	ring := nodes["alpha"].Ring()
	fmt.Printf("cluster formed: ring v%d, members %v\n", ring.Version(), ring.Members())
	for _, id := range ids {
		fmt.Printf("  %-5s owns partitions %v\n", id, ring.OwnedBy(id))
	}

	// Subscribe through beta; the subscription is bound to whichever
	// members own the topics' partitions.
	ctx := context.Background()
	got := make(chan pubsubcd.Notification, 16)
	sub, err := pubsubcd.DialBroker(ctx, nodes["beta"].Addr(),
		pubsubcd.WithNotify(func(n pubsubcd.Notification) { got <- n }))
	if err != nil {
		return err
	}
	defer sub.Close()
	topics := []string{"news/world", "news/tech"}
	if _, err := sub.Subscribe(ctx, 1, topics, nil); err != nil {
		return err
	}

	// Publish through alpha — a different member than the subscriber's.
	pub, err := pubsubcd.DialBroker(ctx, nodes["alpha"].Addr())
	if err != nil {
		return err
	}
	defer pub.Close()
	publish := func(tag string, n int) error {
		for i := 0; i < n; i++ {
			c := pubsubcd.Content{
				ID:     fmt.Sprintf("%s-%d", tag, i),
				Topics: []string{topics[i%len(topics)]},
				Body:   []byte(tag),
			}
			if _, err := pub.Publish(ctx, c); err != nil {
				return fmt.Errorf("publish %s: %w", c.ID, err)
			}
		}
		return nil
	}
	if err := publish("page", 4); err != nil {
		return err
	}
	if err := await(got, "page", 4); err != nil {
		return err
	}
	fmt.Println("published 4 pages via alpha, all notified to the subscriber on beta")

	// Departure: gamma retires. Its partitions stream to the survivors
	// via journaled handoff before the new ring takes effect.
	if err := nodes["gamma"].Retire(ctx); err != nil {
		return err
	}
	if err := nodes["gamma"].Close(); err != nil {
		return err
	}
	if err := waitAgreed(2, nodes["alpha"], nodes["beta"]); err != nil {
		return err
	}
	ring = nodes["alpha"].Ring()
	fmt.Printf("gamma retired: ring v%d, members %v\n", ring.Version(), ring.Members())
	for _, id := range ids[:2] {
		fmt.Printf("  %-5s owns partitions %v\n", id, ring.OwnedBy(id))
	}

	// Traffic continues: the subscriber never reconnected, the
	// publisher never learned the membership changed.
	if err := publish("after", 4); err != nil {
		return err
	}
	if err := await(got, "after", 4); err != nil {
		return err
	}
	fmt.Println("published 4 more pages after the departure, all delivered")

	// Content that lived on gamma's partitions is still fetchable.
	c, err := pub.Fetch(ctx, "page-0")
	if err != nil {
		return err
	}
	fmt.Printf("fetched %s (%d bytes) after the rebalance\n", c.ID, len(c.Body))
	return nil
}

// waitAgreed polls until every node's ring has exactly want members
// and all the nodes hold the same ring. A member acts on its own view
// of the ring, so traffic waits until no member lags behind. After a
// retire the survivors can take several probe timeouts to agree.
func waitAgreed(want int, nodes ...*pubsubcd.ClusterNode) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		first := nodes[0].Ring()
		agreed := len(first.Members()) == want
		for _, n := range nodes[1:] {
			r := n.Ring()
			agreed = agreed && r.Version() == first.Version() &&
				fmt.Sprint(r.Members()) == fmt.Sprint(first.Members())
		}
		if agreed {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rings did not agree on %d members (first: v%d %v)",
				want, first.Version(), first.Members())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// await drains notifications until n distinct pages of the given wave
// have arrived, tolerating duplicates from re-bound subscriptions
// (delivery is at-least-once across a rebalance).
func await(got <-chan pubsubcd.Notification, tag string, n int) error {
	seen := map[string]bool{}
	timeout := time.After(20 * time.Second)
	for len(seen) < n {
		select {
		case nt := <-got:
			if len(nt.PageID) > len(tag) && nt.PageID[:len(tag)+1] == tag+"-" {
				seen[nt.PageID] = true
			}
		case <-timeout:
			return fmt.Errorf("only %d/%d %q notifications arrived", len(seen), n, tag)
		}
	}
	return nil
}
