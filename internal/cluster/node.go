package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/idtable"
	"pubsubcd/internal/journal"
	"pubsubcd/internal/telemetry"
)

// Default tuning for cluster nodes.
const (
	DefaultHeartbeatInterval = time.Second
	DefaultHeartbeatMisses   = 3
	DefaultRequestTimeout    = 3 * time.Second
	DefaultForwardTimeout    = 10 * time.Second
	DefaultSettle            = time.Second
)

// Config describes one cluster member.
type Config struct {
	// NodeID names this member; it must be unique in the cluster and
	// appear in every peer's Peers map under the same name.
	NodeID string
	// Addr is the listen address for the member's wire server (e.g.
	// "127.0.0.1:7070"). Both edge clients and peer member links
	// connect to it.
	Addr string
	// Listener, when non-nil, is served instead of binding Addr.
	Listener net.Listener
	// Peers maps peer node IDs to their addresses. An entry for
	// NodeID itself is ignored.
	Peers map[string]string
	// Partitions is the fixed topic-partition count; every member
	// must agree on it. 0 means DefaultPartitions.
	Partitions int
	// VirtualNodes is the ring points per member; 0 means
	// DefaultVirtualNodes.
	VirtualNodes int

	// DataDir, when set, makes every partition durable: partition p
	// journals under DataDir/part-<p> and recovers from it on the
	// next Start.
	DataDir string
	// Fsync is the partition journals' fsync policy.
	Fsync journal.FsyncPolicy
	// SnapshotInterval is the partition journals' snapshot cadence.
	SnapshotInterval time.Duration

	// Registry receives cluster.*, broker.* and transport.* metrics;
	// nil disables telemetry.
	Registry *telemetry.Registry
	// Spans receives distributed-trace spans; nil disables tracing.
	Spans *telemetry.SpanCollector

	// HeartbeatInterval is the peer-liveness probe cadence. 0 means
	// DefaultHeartbeatInterval; negative disables the loop (tests
	// drive ProbeOnce manually).
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many consecutive failed probes declare a
	// live peer dead. 0 means DefaultHeartbeatMisses.
	HeartbeatMisses int

	// RequestTimeout bounds each member-link request attempt; 0 means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// ForwardTimeout bounds how long an in-flight publish is buffered
	// and re-routed while its partition's owner is unreachable or
	// moving; 0 means DefaultForwardTimeout.
	ForwardTimeout time.Duration
	// Settle is the quarantine applied to a partition adopted without
	// a handoff (its previous owner died): publishes are rejected —
	// and so stay buffered at their senders — for this long, giving
	// every edge router one detection cycle to re-bind its acked
	// subscriptions to the new owner first. 0 means DefaultSettle.
	Settle time.Duration

	// DialFunc replaces the member links' TCP dialer (faultnet hook).
	DialFunc func(ctx context.Context, addr string) (net.Conn, error)

	// SlowConsumerPolicy governs connections (edge clients and peer
	// links alike) that stop draining their notify stream from this
	// member's wire server; zero is the blocking default. See
	// broker.WithSlowConsumerPolicy.
	SlowConsumerPolicy broker.SlowConsumerPolicy
	// MaxPendingPerConn bounds each connection's queued notify bytes
	// before SlowConsumerPolicy applies; 0 keeps the broker default.
	MaxPendingPerConn int64
	// Admission enables broker-wide admission control on this member's
	// wire server; the zero value disables it.
	Admission broker.AdmissionConfig

	// BreakerThreshold and BreakerCooldown tune the per-peer circuit
	// breakers on the member links (consecutive transport failures
	// that open a breaker, and how long it fails forwards fast before
	// probing). Zero values take the broker package defaults.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.Partitions <= 0 {
		c.Partitions = DefaultPartitions
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = DefaultVirtualNodes
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = DefaultHeartbeatMisses
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = DefaultForwardTimeout
	}
	if c.Settle <= 0 {
		// The quarantine only helps if it outlives the slowest peer's
		// failure detection — every edge router must notice the death
		// and re-bind its subscriptions before the adopted partition
		// starts accepting publishes.
		if c.HeartbeatInterval > 0 {
			c.Settle = c.HeartbeatInterval * time.Duration(c.HeartbeatMisses+2)
		} else {
			c.Settle = DefaultSettle
		}
	}
	return c
}

// Node is one cluster member: a wire server fronting the cluster
// router, the local partition engines, the member links to peers, and
// the failure detector. Node implements broker.Backend, so everything
// that can front a *broker.Broker can front a cluster member.
type Node struct {
	cfg Config
	met *metrics

	// ringV mirrors ring.Version() for lock-free stamping of outgoing
	// requests (broker.WithRingVersion).
	ringV atomic.Uint64
	// versionFloor is the highest peer ring version observed on the
	// wire; the next local ring rebuild starts above it, so members
	// that rebuilt independently converge on comparable versions.
	versionFloor atomic.Uint64

	// rebalanceMu serializes membership transitions (probe outcomes,
	// handoffs, retirement) end to end, network included. mu guards
	// only the state maps and is never held across network calls.
	rebalanceMu sync.Mutex

	// retired flips when Retire completes; from then on the node
	// rejects ring-stamped traffic (so peers' failure detectors expel
	// it) while continuing to serve its edge clients via forwards.
	retired atomic.Bool

	mu         sync.Mutex
	ring       *Ring
	alive      map[string]bool
	misses     map[string]int
	parts      map[int]*broker.Broker
	links      map[string]*memberLink
	routes     map[int64]*edgeSub
	applied    map[int64]appliedSub
	nextID     int64
	quarantine map[int]time.Time
	// received marks partitions whose state arrived via handoff since
	// the last ring transition: adopting them skips the quarantine.
	received map[int]bool
	closed   bool

	server   *broker.Server
	stop     chan struct{}
	probeNow chan struct{}
	wg       sync.WaitGroup
}

// edgeSub is one client-acked subscription at this node's edge — the
// authoritative record the router re-binds to partition owners across
// ring changes.
type edgeSub struct {
	id         int64
	proxy      int
	subscriber string
	topics     []string
	keywords   []string
	notifier   broker.Notifier
	// bindings maps each target partition to where the subscription
	// currently lives.
	bindings map[int]*subBinding
}

// subBinding is one partition-scoped registration of an edge sub.
type subBinding struct {
	partition int
	owner     string // "" = local partition engine
	localID   int64  // sub ID in the local partition engine
	link      *memberLink
	linkID    int64 // client-side sub ID on the member link
}

// appliedSub records a peer's forwarded subscription applied to a
// local partition, keyed by the node-level ID returned to the peer.
type appliedSub struct {
	partition int
	localID   int64
}

// Start brings up a cluster member: partition engines for everything
// it owns under its initial ring (itself alone — peers join as the
// failure detector observes them answering), the wire server, and the
// heartbeat loop.
func Start(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeID == "" {
		return nil, errors.New("cluster: config needs a NodeID")
	}
	n := &Node{
		cfg:        cfg,
		met:        newMetrics(cfg.Registry),
		alive:      map[string]bool{cfg.NodeID: true},
		misses:     make(map[string]int),
		parts:      make(map[int]*broker.Broker),
		links:      make(map[string]*memberLink),
		routes:     make(map[int64]*edgeSub),
		applied:    make(map[int64]appliedSub),
		quarantine: make(map[int]time.Time),
		received:   make(map[int]bool),
		stop:       make(chan struct{}),
		probeNow:   make(chan struct{}, 1),
	}
	n.ring = NewRing(cfg.Partitions, cfg.VirtualNodes, []string{cfg.NodeID}, 1)
	n.ringV.Store(1)
	for _, p := range n.ring.OwnedBy(cfg.NodeID) {
		if err := n.ensurePartitionLocked(p); err != nil {
			n.closePartitions()
			return nil, err
		}
	}
	n.observeRing(n.ring)

	srvOpts := []broker.ServerOption{
		broker.WithServerTelemetry(cfg.Registry),
		broker.WithServerTracer(cfg.Spans),
		broker.WithSlowConsumerPolicy(cfg.SlowConsumerPolicy),
		broker.WithMaxPendingPerConn(cfg.MaxPendingPerConn),
		broker.WithAdmissionControl(cfg.Admission),
	}
	if cfg.Listener != nil {
		srvOpts = append(srvOpts, broker.WithListener(cfg.Listener))
	}
	srv, err := broker.NewServer(n, cfg.Addr, srvOpts...)
	if err != nil {
		n.closePartitions()
		return nil, err
	}
	n.server = srv

	if cfg.HeartbeatInterval > 0 {
		n.wg.Add(1)
		go n.heartbeatLoop()
	}
	return n, nil
}

// NodeID returns this member's ID.
func (n *Node) NodeID() string { return n.cfg.NodeID }

// Addr returns the wire server's listen address.
func (n *Node) Addr() string { return n.server.Addr() }

// Ring returns the node's current routing table.
func (n *Node) Ring() *Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// Durable reports whether partitions journal to disk. The transport
// consults it during graceful shutdown.
func (n *Node) Durable() bool { return n.cfg.DataDir != "" }

// OverloadState reports the wire server's admission state ("ok",
// "shedding" or "overloaded") and, when degraded, the reason.
func (n *Node) OverloadState() (state, reason string) { return n.server.OverloadState() }

// ringVersion is the lock-free ring version for request stamping.
func (n *Node) ringVersion() uint64 { return n.ringV.Load() }

// noteVersionFloor records a peer ring version seen on the wire.
func (n *Node) noteVersionFloor(v uint64) {
	for {
		cur := n.versionFloor.Load()
		if v <= cur || n.versionFloor.CompareAndSwap(cur, v) {
			return
		}
	}
}

// nudgeProbe requests an immediate failure-detector pass.
func (n *Node) nudgeProbe() {
	select {
	case n.probeNow <- struct{}{}:
	default:
	}
}

// ensurePartitionLocked opens the partition engine if missing. Caller
// holds n.mu (or is single-threaded during Start).
func (n *Node) ensurePartitionLocked(p int) error {
	if n.parts[p] != nil {
		return nil
	}
	opts := []broker.BrokerOption{
		broker.WithBrokerTelemetry(n.cfg.Registry),
	}
	if n.cfg.DataDir != "" {
		opts = append(opts,
			broker.WithDataDir(filepath.Join(n.cfg.DataDir, fmt.Sprintf("part-%04d", p))),
			broker.WithFsyncPolicy(n.cfg.Fsync),
			broker.WithSnapshotInterval(n.cfg.SnapshotInterval),
		)
	}
	b, err := broker.Open(opts...)
	if err != nil {
		return fmt.Errorf("cluster: open partition %d: %w", p, err)
	}
	n.parts[p] = b
	n.met.setOwned(p, true)
	return nil
}

// closePartitions closes every partition engine (final checkpoints
// for durable ones).
func (n *Node) closePartitions() {
	n.mu.Lock()
	parts := n.parts
	n.parts = make(map[int]*broker.Broker)
	n.mu.Unlock()
	for p, b := range parts {
		_ = b.Close()
		n.met.setOwned(p, false)
	}
}

// observeRing publishes ring-shaped gauges.
func (n *Node) observeRing(r *Ring) {
	if n.met == nil {
		return
	}
	n.met.ringVersion.Set(int64(r.Version()))
	n.met.membersAlive.Set(int64(len(r.Members())))
}

// link returns (creating if needed) the member link for a peer ID.
func (n *Node) link(id string) (*memberLink, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, errors.New("cluster: node closed")
	}
	if l := n.links[id]; l != nil {
		return l, nil
	}
	addr, ok := n.cfg.Peers[id]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown peer %q", id)
	}
	l := &memberLink{
		node: n, id: id, addr: addr,
		brk: broker.NewBreaker(n.cfg.BreakerThreshold, n.cfg.BreakerCooldown),
	}
	if n.met != nil {
		peer := id
		l.brk.OnChange(func(s broker.BreakerState) {
			n.met.breakerState.With(peer).Set(int64(s))
			if s == broker.BreakerOpen {
				n.met.breakerOpens.Inc()
			}
		})
	}
	n.links[id] = l
	return l, nil
}

// Close shuts the member down gracefully without handing partitions
// off: the server drains, links close, partition engines checkpoint.
// Use Retire first for a leave that moves state to the survivors.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	links := n.links
	n.links = make(map[string]*memberLink)
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
	err := n.server.Close()
	for _, l := range links {
		l.close()
	}
	n.closePartitions()
	return err
}

// Kill simulates a crash for chaos tests: the server and links drop
// without draining, no handoff, no final checkpoint beyond what the
// journals already hold. Peers find out via their failure detectors.
func (n *Node) Kill() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	links := n.links
	n.links = make(map[string]*memberLink)
	n.mu.Unlock()
	close(n.stop)
	_ = n.server.Close()
	for _, l := range links {
		l.close()
	}
	n.wg.Wait()
}

// memberLink is the resilient client this node keeps toward one peer:
// a broker.Client with reconnection, ring-version stamping, and a
// dispatch table mapping the link's subscription IDs to the delivery
// targets of the edge subscriptions they carry notifications for.
type memberLink struct {
	node *Node
	id   string
	addr string

	mu     sync.Mutex
	client *broker.Client
	subs   idtable.Table[broker.Target] // link-client sub ID -> edge route's target

	// relayMu guards the relay's fan-out scratch, reused across notify
	// frames so relaying allocates nothing.
	relayMu sync.Mutex
	fan     broker.Fanout

	// brk is the per-peer circuit breaker: a run of transport-class
	// failures opens it and forwards fail fast (errBreakerOpen, still
	// retryable — the work stays buffered) instead of burning a
	// request timeout each attempt against a peer known dead. The
	// heartbeat ping doubles as the half-open probe.
	brk *broker.Breaker
}

// get returns the live client, dialing on first use. Peers that are
// down fail fast here; the caller treats that like any other
// transport failure.
func (l *memberLink) get(ctx context.Context) (*broker.Client, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.client != nil {
		return l.client, nil
	}
	n := l.node
	dctx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
	defer cancel()
	c, err := broker.Dial(dctx, l.addr,
		// Inter-member traffic is all hot path (forwards, handoff
		// streams): prefer the binary codec, falling back to JSON when
		// a peer mid-rolling-upgrade doesn't offer it yet.
		broker.WithPreferredCodec(broker.BinaryCodec(), broker.JSONCodec()),
		broker.WithReconnect(broker.BackoffPolicy{}),
		broker.WithRequestTimeout(n.cfg.RequestTimeout),
		broker.WithDialTimeout(n.cfg.RequestTimeout),
		broker.WithDialFunc(n.cfg.DialFunc),
		broker.WithClientTelemetry(n.cfg.Registry),
		broker.WithClientTracer(n.cfg.Spans),
		broker.WithRingVersion(n.ringVersion),
		broker.WithNotifyContext(l.onNotify),
	)
	if err != nil {
		return nil, err
	}
	l.client = c
	return c, nil
}

// onNotify relays a notify frame arriving on the member link to the
// edge subscriptions it belongs to: ids are the link's subscription
// IDs, mapped to their edge routes' targets under one lock in one
// cursor walk (the IDs arrive ascending), and the targets fan out as
// one run per edge connection.
func (l *memberLink) onNotify(ctx context.Context, nt broker.Notification, ids []int64) {
	l.relayMu.Lock()
	defer l.relayMu.Unlock()
	l.mu.Lock()
	cur := l.subs.Cursor()
	for _, id := range ids {
		if t, ok := cur.Find(id); ok {
			l.fan.Add(t)
		}
	}
	l.mu.Unlock()
	l.fan.Deliver(ctx, nt)
}

// track registers a link subscription in the dispatch table: its
// notifications go to the edge route es, under the route's ID.
func (l *memberLink) track(linkID int64, es *edgeSub) {
	t := broker.ResolveTarget(es.notifier, es.id)
	l.mu.Lock()
	l.subs.Set(linkID, t)
	l.mu.Unlock()
}

// untrack removes a link subscription from the dispatch table.
func (l *memberLink) untrack(linkID int64) {
	l.mu.Lock()
	l.subs.Delete(linkID)
	l.mu.Unlock()
}

// errBreakerOpen is the fail-fast result for forwards attempted while
// the peer's breaker is open. It is retryable (retryableForward), so
// forwarding loops keep their work buffered and re-check on the next
// backoff tick without touching the network.
var errBreakerOpen = errors.New("cluster: peer circuit breaker open")

// allow consults the breaker before a forward; open fails fast.
func (l *memberLink) allow() error {
	if l.brk.Allow() {
		return nil
	}
	if l.node.met != nil {
		l.node.met.breakerFastFails.Inc()
	}
	return errBreakerOpen
}

// observe feeds a forward's outcome to the breaker. Only
// transport-class failures (the peer unreachable) count against it;
// semantic rejections — stale ring, duplicate publish, unknown page —
// prove the peer alive and reset the failure run.
func (l *memberLink) observe(err error) {
	if peerUnreachable(err) {
		l.brk.Failure()
	} else {
		l.brk.Success()
	}
}

// peerUnreachable classifies errors that mean the peer itself is down
// or unreachable, as opposed to answering with a rejection.
func peerUnreachable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, broker.ErrConnectionLost), errors.Is(err, broker.ErrClientClosed):
		return true
	case errors.Is(err, context.DeadlineExceeded):
		return true
	}
	s := err.Error()
	return strings.Contains(s, "dial") || strings.Contains(s, "connection")
}

// ping probes the peer and returns the ring version its response
// carried (0 when unknown). The probe bypasses the breaker's Allow —
// it IS the scheduled reachability check — and its outcome feeds the
// breaker, so a heartbeat recovery closes the breaker even when no
// forward traffic half-open-probed it first.
func (l *memberLink) ping(ctx context.Context) (uint64, error) {
	c, err := l.get(ctx)
	if err != nil {
		l.brk.Failure()
		return 0, err
	}
	if err := c.Ping(ctx); err != nil {
		l.brk.Failure()
		return 0, err
	}
	l.brk.Success()
	return c.ServerRingVersion(), nil
}

// close tears the link down.
func (l *memberLink) close() {
	l.mu.Lock()
	c := l.client
	l.client = nil
	l.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// sortedPartitions returns map keys in ascending order; transitions
// iterate deterministically so tests and journals replay identically.
func sortedPartitions(m map[int]*subBinding) []int {
	out := make([]int, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}
