package cluster

import (
	"testing"
)

func TestRingDeterministicAcrossMemberOrder(t *testing.T) {
	a := NewRing(32, 64, []string{"n1", "n2", "n3"}, 7)
	b := NewRing(32, 64, []string{"n3", "n1", "n2"}, 7)
	for p := 0; p < a.Partitions(); p++ {
		if a.Owner(p) != b.Owner(p) {
			t.Fatalf("partition %d: owner %q vs %q for permuted member lists", p, a.Owner(p), b.Owner(p))
		}
	}
}

func TestRingPartitionOfStableUnderMembership(t *testing.T) {
	small := NewRing(16, 64, []string{"n1"}, 1)
	big := NewRing(16, 64, []string{"n1", "n2", "n3", "n4"}, 2)
	for _, topic := range []string{"sports", "weather", "finance/bonds", "", "日本語"} {
		if small.PartitionOf(topic) != big.PartitionOf(topic) {
			t.Fatalf("topic %q moved partitions when membership changed", topic)
		}
	}
}

func TestRingEveryPartitionOwned(t *testing.T) {
	r := NewRing(64, 32, []string{"a", "b", "c", "d", "e"}, 1)
	counts := map[string]int{}
	for p := 0; p < r.Partitions(); p++ {
		o := r.Owner(p)
		if !r.HasMember(o) {
			t.Fatalf("partition %d owned by non-member %q", p, o)
		}
		counts[o]++
	}
	for _, m := range r.Members() {
		if counts[m] == 0 {
			t.Errorf("member %q owns no partitions (distribution: %v)", m, counts)
		}
	}
}

func TestRingMemberRemovalOnlyMovesItsPartitions(t *testing.T) {
	old := NewRing(64, 64, []string{"a", "b", "c"}, 1)
	neu := NewRing(64, 64, []string{"a", "b"}, 2)
	moved := 0
	for p := 0; p < old.Partitions(); p++ {
		if old.Owner(p) == neu.Owner(p) {
			continue
		}
		if old.Owner(p) != "c" {
			t.Fatalf("partition %d moved from %q to %q although %q did not leave",
				p, old.Owner(p), neu.Owner(p), old.Owner(p))
		}
		moved++
	}
	if want := len(old.OwnedBy("c")); moved != want {
		t.Fatalf("%d partitions moved, want %d (c's partitions)", moved, want)
	}
}

func TestRingOwnersReplicaList(t *testing.T) {
	r := NewRing(16, 64, []string{"a", "b", "c"}, 1)
	for p := 0; p < r.Partitions(); p++ {
		owners := r.Owners(p, 3)
		if len(owners) != 3 {
			t.Fatalf("partition %d: got %d owners, want 3", p, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("partition %d: duplicate owner %q in replica list %v", p, o, owners)
			}
			seen[o] = true
		}
		if owners[0] != r.Owner(p) {
			t.Fatalf("partition %d: Owners[0]=%q, Owner=%q", p, owners[0], r.Owner(p))
		}
	}
	if got := r.Owners(0, 10); len(got) != 3 {
		t.Fatalf("replica list capped at member count: got %v", got)
	}
}

func TestRingOwnedByPartition(t *testing.T) {
	r := NewRing(16, 64, []string{"x", "y"}, 3)
	total := 0
	for _, m := range r.Members() {
		for _, p := range r.OwnedBy(m) {
			if r.Owner(p) != m {
				t.Fatalf("OwnedBy(%q) includes %d owned by %q", m, p, r.Owner(p))
			}
			total++
		}
	}
	if total != r.Partitions() {
		t.Fatalf("OwnedBy covers %d partitions, want %d", total, r.Partitions())
	}
	if r.Version() != 3 {
		t.Fatalf("Version = %d, want 3", r.Version())
	}
}
