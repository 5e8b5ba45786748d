// Package cluster shards the broker horizontally: the topic/keyword
// space is split into a fixed number of partitions, partitions are
// assigned to member nodes by a consistent-hash ring of virtual
// nodes, and every member fronts the same wire protocol — a publish
// or subscribe sent to any member is routed to the partition owner
// over the broker's resilient transport. Ownership moves with
// membership: when a node joins or leaves (admin-triggered or
// detected by heartbeats), the affected partitions are handed off
// through the journal's snapshot machinery and the ring version is
// bumped, so requests routed with a stale view are rejected and
// re-routed rather than silently applied to the wrong owner.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Defaults for ring construction.
const (
	// DefaultPartitions is the number of topic partitions when not
	// configured. Fixed for the lifetime of a cluster: the topic→
	// partition mapping must never move, only partition→node does.
	DefaultPartitions = 16
	// DefaultVirtualNodes is the number of ring points per member.
	// More points smooth the partition distribution across members at
	// the cost of a larger ring.
	DefaultVirtualNodes = 64
)

// Ring is an immutable consistent-hash routing table: topics hash to
// partitions (stable across membership changes), partitions hash onto
// a ring of member virtual nodes (moves only when membership does).
// A new membership yields a new Ring value with a higher version.
type Ring struct {
	version    uint64
	partitions int
	members    []string // sorted
	points     []ringPoint
}

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds the routing table for a member set. members may be
// unsorted and contain duplicates; version is the ring revision this
// membership view belongs to. partitions and virtualNodes fall back
// to the defaults when non-positive.
func NewRing(partitions, virtualNodes int, members []string, version uint64) *Ring {
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	set := make(map[string]struct{}, len(members))
	for _, m := range members {
		if m != "" {
			set[m] = struct{}{}
		}
	}
	sorted := make([]string, 0, len(set))
	for m := range set {
		sorted = append(sorted, m)
	}
	sort.Strings(sorted)
	r := &Ring{
		version:    version,
		partitions: partitions,
		members:    sorted,
		points:     make([]ringPoint, 0, len(sorted)*virtualNodes),
	}
	for _, m := range sorted {
		for i := 0; i < virtualNodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(fmt.Sprintf("%s#%d", m, i)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// hash64 is FNV-1a run through a 64-bit avalanche finalizer, the
// ring's only hash function. The finalizer matters: raw FNV-1a is
// nearly linear for the short sequential keys the ring feeds it
// ("n1#7", "partition/3"), which clumps every virtual node of a
// member into one arc. Stability across members and releases matters
// more than speed: every member must compute identical placements
// from identical membership.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the MurmurHash3 fmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Version is the ring revision; higher versions supersede lower ones.
func (r *Ring) Version() uint64 { return r.version }

// Partitions is the fixed partition count.
func (r *Ring) Partitions() int { return r.partitions }

// Members lists the member set in sorted order.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// HasMember reports membership of node.
func (r *Ring) HasMember(node string) bool {
	i := sort.SearchStrings(r.members, node)
	return i < len(r.members) && r.members[i] == node
}

// PartitionOf maps a topic to its partition. The mapping depends only
// on the partition count, never on membership.
func (r *Ring) PartitionOf(topic string) int {
	return int(hash64(topic) % uint64(r.partitions))
}

// Owner returns the member owning the partition: the first virtual
// node clockwise from the partition's ring position. Empty when the
// ring has no members.
func (r *Ring) Owner(partition int) string {
	owners := r.Owners(partition, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners walks clockwise from the partition's ring position and
// returns up to n distinct members — the owner first, then the
// members a replica-placement or failover policy would pick next.
func (r *Ring) Owners(partition, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(fmt.Sprintf("partition/%d", partition))
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.member]; dup {
			continue
		}
		seen[p.member] = struct{}{}
		out = append(out, p.member)
	}
	return out
}

// OwnedBy lists the partitions the node owns under this ring.
func (r *Ring) OwnedBy(node string) []int {
	var out []int
	for p := 0; p < r.partitions; p++ {
		if r.Owner(p) == node {
			out = append(out, p)
		}
	}
	return out
}
