package broker

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pubsubcd/internal/idtable"
	"pubsubcd/internal/telemetry"
)

// The resilient TCP client. A Client owns at most one live connection
// at a time; requests are correlated with responses by sequence number,
// so concurrent round trips share the connection. When reconnection is
// enabled (WithReconnect), a supervisor goroutine watches the
// connection, redials with jittered exponential backoff when it dies
// (read-loop error or heartbeat timeout), and re-establishes the
// client-side subscription registry on the new connection — so the
// subscription IDs handed out by Subscribe stay valid across broker
// restarts, and notifications keep flowing after recovery.

// Errors reported by the client's request path.
var (
	// ErrClientClosed is returned once Close has been called or the
	// client has permanently given up reconnecting.
	ErrClientClosed = errors.New("broker: client closed")
	// ErrConnectionLost is returned when the connection died while a
	// request was in flight (and the retry budget, if any, was
	// exhausted).
	ErrConnectionLost = errors.New("broker: connection lost")
	// ErrUnknownSubscription is returned by Unsubscribe for IDs this
	// client never issued (or already unsubscribed).
	ErrUnknownSubscription = errors.New("broker: unknown subscription")
)

// clientMetrics are the client's pre-resolved handles; nil when off.
type clientMetrics struct {
	bytesIn           *telemetry.Counter
	bytesOut          *telemetry.Counter
	flushes           *telemetry.Counter
	timeouts          *telemetry.Counter
	disconnects       *telemetry.Counter
	reconnects        *telemetry.Counter
	reconnectFailures *telemetry.Counter
	retries           *telemetry.Counter
	resubscribes      *telemetry.Counter
	heartbeatTimeouts *telemetry.Counter
	overloadBackoffs  *telemetry.Counter
	notifyGaps        *telemetry.Counter
	rtt               map[string]*telemetry.Histogram

	// deliveryLatency records, per negotiated codec, the broker-side
	// publish→encode latency each notify frame reports via PublishedAt.
	// The value is an elapsed duration measured entirely on the broker's
	// clock (never a cross-machine timestamp difference), so samples are
	// non-negative by construction regardless of clock skew. Traced
	// deliveries attach their trace ID as an exemplar.
	deliveryLatency *telemetry.HistogramVec
}

func newClientMetrics(reg *telemetry.Registry) *clientMetrics {
	if reg == nil {
		return nil
	}
	m := &clientMetrics{
		bytesIn:           reg.Counter("transport.client.bytes_in"),
		bytesOut:          reg.Counter("transport.client.bytes_out"),
		flushes:           reg.Counter("transport.client.flushes"),
		timeouts:          reg.Counter("transport.client.timeouts"),
		disconnects:       reg.Counter("transport.client.disconnects"),
		reconnects:        reg.Counter("transport.client.reconnects"),
		reconnectFailures: reg.Counter("transport.client.reconnect_failures"),
		retries:           reg.Counter("transport.client.retries"),
		resubscribes:      reg.Counter("transport.client.resubscribes"),
		heartbeatTimeouts: reg.Counter("transport.client.heartbeat_timeouts"),
		overloadBackoffs:  reg.Counter("transport.client.overload_backoffs"),
		notifyGaps:        reg.Counter("transport.client.notify_gaps"),
		rtt:               make(map[string]*telemetry.Histogram, len(wireTypes)),
	}
	lat := telemetry.LatencyBuckets()
	m.deliveryLatency = reg.HistogramVec("transport.client.delivery_latency_ns", lat, "codec")
	for _, t := range wireTypes {
		m.rtt[t] = reg.Histogram("transport.client.rtt_ns."+t, lat)
	}
	return m
}

// clientConn is one live connection of a Client. Its read loop runs in
// its own goroutine and closes done when the connection dies. The
// codec fields are fixed during negotiation, before the read loop (or
// any caller) can see the connection, and immutable afterwards.
type clientConn struct {
	conn      net.Conn
	w         *connWriter
	br        *bufio.Reader
	codec     Codec
	codecName string
	maxFrame  int
	rbuf      []byte  // read-loop frame buffer, reused across frames
	ids       []int64 // read-loop subscription-ID scratch, reused across frames

	done     chan struct{}
	lastRead atomic.Int64 // UnixNano of the last successful read
	stopHB   chan struct{}
}

// send encodes one message into the connection's write batch. A flush
// failure is sticky and severs the connection: a stream in an unknown
// state cannot be trusted for framing again.
func (cc *clientConn) send(m *Message) error {
	return cc.w.send(m)
}

// clientSub is a registry entry: the client-side view of one live
// subscription, re-established on every reconnect.
type clientSub struct {
	id       int64 // client-side ID, stable across reconnects
	proxy    int
	topics   []string
	keywords []string
	part     int   // wire partition header (partition+1), 0 = unrouted
	serverID int64 // broker-side ID on the current connection
}

// Client is a TCP client for a broker Server.
type Client struct {
	addr    string
	cfg     clientConfig
	metrics *clientMetrics

	mu             sync.Mutex
	cur            *clientConn
	connWait       chan struct{} // closed while cur != nil or the client is dead
	connWaitClosed bool
	seq            uint64
	pending        map[uint64]pendingReq
	subs           map[int64]*clientSub
	byServer       idtable.Table[int64] // server sub ID -> client sub ID
	nextSubID      int64
	closed         bool
	dead           bool

	closeCh   chan struct{} // closed by Close to wake the supervisor
	closeOnce sync.Once
	done      chan struct{} // closed when the supervisor exits
	rng       *rand.Rand    // backoff jitter; supervisor-only

	// overloadRng jitters the pauses between attempts the broker shed
	// with ErrOverloaded. Separate from rng (which only the supervisor
	// may touch) because overload pauses happen on caller goroutines.
	overloadMu  sync.Mutex
	overloadRng *rand.Rand

	// serverRing is the highest ring version seen in responses from a
	// clustered server (0 for non-clustered peers).
	serverRing atomic.Uint64
}

// Dial connects to a broker server, configured by functional options
// (WithNotify for the notification callback, WithReconnect for a
// self-healing connection, WithClientTelemetry for metrics, ...). The
// initial dial is synchronous: Dial fails if the broker is unreachable,
// and reconnection — when enabled — takes over only after the first
// connection is up.
func Dial(ctx context.Context, addr string, opts ...ClientOption) (*Client, error) {
	cfg := defaultClientConfig()
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	cfg.resolve()
	c := &Client{
		addr:        addr,
		cfg:         cfg,
		metrics:     newClientMetrics(cfg.telemetry),
		connWait:    make(chan struct{}),
		pending:     make(map[uint64]pendingReq),
		subs:        make(map[int64]*clientSub),
		closeCh:     make(chan struct{}),
		done:        make(chan struct{}),
		rng:         rand.New(rand.NewSource(cfg.backoff.Seed)),
		overloadRng: rand.New(rand.NewSource(cfg.backoff.Seed + 1)),
	}
	conn, err := cfg.dialFunc(ctx, addr)
	if err != nil {
		close(c.done)
		return nil, fmt.Errorf("broker: dial: %w", err)
	}
	cc, err := c.startConn(conn)
	if err != nil {
		_ = conn.Close()
		close(c.done)
		return nil, fmt.Errorf("broker: dial: %w", err)
	}
	c.install(cc)
	go c.supervise(cc)
	return c, nil
}

// startConn wraps a fresh net.Conn: negotiates the codec, then starts
// the read loop and heartbeat. On error the caller owns closing conn.
func (c *Client) startConn(conn net.Conn) (*clientConn, error) {
	var bytesIn, bytesOut, timeouts, flushes *telemetry.Counter
	if cm := c.metrics; cm != nil {
		bytesIn, bytesOut = cm.bytesIn, cm.bytesOut
		timeouts, flushes = cm.timeouts, cm.flushes
	}
	cc := &clientConn{
		conn:      conn,
		br:        bufio.NewReaderSize(&countingReader{r: conn, c: bytesIn}, readBufSize),
		codec:     jsonCodec{},
		codecName: codecJSON,
		maxFrame:  c.cfg.maxFrame,
		done:      make(chan struct{}),
		stopHB:    make(chan struct{}),
	}
	cc.w = newConnWriter(conn, cc.codec, cc.maxFrame, DefaultWriteTimeout, bytesOut, timeouts, flushes)
	cc.lastRead.Store(time.Now().UnixNano())
	if err := c.negotiate(cc); err != nil {
		cc.w.closeFlush(0)
		return nil, err
	}
	go func() {
		defer close(cc.done)
		c.readLoop(cc)
	}()
	if c.cfg.heartbeatInterval > 0 {
		go c.heartbeat(cc)
	}
	return cc, nil
}

// negotiate runs the hello exchange on a fresh connection, before the
// read loop starts: offer the preferred codecs, read the server's
// pick synchronously, and switch both directions. Skipped entirely
// when the client is pinned to plain JSON (WithPreferredCodec with
// only the JSON codec) — that mode is byte-identical to the pre-codec
// protocol, so it also works against servers that predate negotiation.
// Servers that don't understand "hello" reject it with an error
// response, which downgrades the connection to JSON.
func (c *Client) negotiate(cc *clientConn) error {
	prefs := c.cfg.codecs
	if len(prefs) == 1 && prefs[0].Name() == codecJSON {
		return nil
	}
	// readLoop expands coalesced notify frames, so every hello offers
	// capCoalesce.
	hello := Message{Type: msgHello, Codecs: codecNames(prefs), MaxFrame: c.cfg.maxFrame, Caps: []string{capCoalesce}}
	// The exchange is bounded by the dial timeout: negotiation is part
	// of connection establishment.
	_ = cc.conn.SetReadDeadline(time.Now().Add(c.cfg.dialTimeout))
	defer func() { _ = cc.conn.SetReadDeadline(time.Time{}) }()
	if err := cc.send(&hello); err != nil {
		return fmt.Errorf("codec negotiation: %w", err)
	}
	payload, err := cc.codec.ReadFrame(cc.br, nil, cc.maxFrame)
	if err != nil {
		return fmt.Errorf("codec negotiation: %w", err)
	}
	var resp Message
	if err := cc.codec.DecodeFrame(payload, &resp); err != nil {
		return fmt.Errorf("codec negotiation: %w", err)
	}
	if resp.Error != "" || resp.Codec == "" {
		// The server refused (no overlap) or predates negotiation
		// (unknown message type): stay on JSON if this client still
		// speaks it, otherwise the dial fails.
		if codecByName(prefs, codecJSON) != nil {
			return nil
		}
		if resp.Error == "" {
			resp.Error = "server selected no codec"
		}
		return fmt.Errorf("codec negotiation: %s", resp.Error)
	}
	sel := codecByName(prefs, resp.Codec)
	if sel == nil {
		return fmt.Errorf("codec negotiation: server picked unsupported codec %q", resp.Codec)
	}
	if resp.MaxFrame > 0 && resp.MaxFrame < cc.maxFrame {
		cc.maxFrame = resp.MaxFrame
	}
	cc.codec, cc.codecName = sel, resp.Codec
	cc.w.setCodec(sel, cc.maxFrame, false)
	return nil
}

// install publishes cc as the current connection and wakes waiters. If
// the client was closed in the meantime the connection is severed
// instead, so the supervisor unwinds on the next iteration.
func (c *Client) install(cc *clientConn) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = cc.conn.Close()
		return
	}
	c.cur = cc
	if !c.connWaitClosed {
		close(c.connWait)
		c.connWaitClosed = true
	}
	c.mu.Unlock()
	c.notifyState(StateConnected)
}

// drop retires cc as the current connection; future waiters block until
// the next install (or markDead).
func (c *Client) drop(cc *clientConn) {
	c.mu.Lock()
	if c.cur == cc {
		c.cur = nil
		c.connWait = make(chan struct{})
		c.connWaitClosed = false
	}
	c.mu.Unlock()
}

// markDead ends the client's life: no further connections will come.
func (c *Client) markDead() {
	c.mu.Lock()
	c.dead = true
	if !c.connWaitClosed {
		close(c.connWait)
		c.connWaitClosed = true
	}
	c.mu.Unlock()
	c.notifyState(StateClosed)
}

func (c *Client) notifyState(s ConnState) {
	if c.cfg.onState != nil {
		c.cfg.onState(s)
	}
}

// supervise owns the connection lifecycle: it waits for the current
// connection to die, then — when reconnection is enabled — redials with
// backoff and re-establishes the subscription registry.
func (c *Client) supervise(cc *clientConn) {
	defer close(c.done)
	for {
		<-cc.done
		close(cc.stopHB)
		_ = cc.conn.Close()
		cc.w.closeFlush(0)
		c.drop(cc)
		if cm := c.metrics; cm != nil {
			cm.disconnects.Inc()
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed || !c.cfg.reconnect {
			c.markDead()
			return
		}
		c.notifyState(StateReconnecting)
		next := c.redial()
		if next == nil {
			c.markDead()
			return
		}
		c.install(next)
		cc = next
	}
}

// redial loops dial attempts under the backoff policy until a
// connection is up and resubscribed, the attempt limit is exhausted, or
// the client is closed. It returns nil when the client should die.
func (c *Client) redial() *clientConn {
	for attempt := 1; ; attempt++ {
		if c.cfg.maxReconnects > 0 && attempt > c.cfg.maxReconnects {
			return nil
		}
		select {
		case <-time.After(c.cfg.backoff.delay(attempt, c.rng)):
		case <-c.closeCh:
			return nil
		}
		select {
		case <-c.closeCh:
			return nil
		default:
		}
		dctx, cancel := context.WithTimeout(context.Background(), c.cfg.dialTimeout)
		conn, err := c.cfg.dialFunc(dctx, c.addr)
		cancel()
		if err != nil {
			if cm := c.metrics; cm != nil {
				cm.reconnectFailures.Inc()
			}
			continue
		}
		cc, err := c.startConn(conn)
		if err != nil {
			// Negotiation failed (e.g. the dial got through but the peer
			// vanished mid-hello): close and keep backing off.
			_ = conn.Close()
			if cm := c.metrics; cm != nil {
				cm.reconnectFailures.Inc()
			}
			continue
		}
		if !c.resubscribe(cc) {
			// The fresh connection died mid-resubscription; close it
			// and keep backing off.
			_ = cc.conn.Close()
			<-cc.done
			close(cc.stopHB)
			cc.w.closeFlush(0)
			if cm := c.metrics; cm != nil {
				cm.reconnectFailures.Inc()
			}
			continue
		}
		if cm := c.metrics; cm != nil {
			cm.reconnects.Inc()
		}
		return cc
	}
}

// resubscribe re-establishes every registry entry on cc, refreshing the
// server-side IDs. It reports false if the connection died.
func (c *Client) resubscribe(cc *clientConn) bool {
	c.mu.Lock()
	subs := make([]*clientSub, 0, len(c.subs))
	for _, s := range c.subs {
		subs = append(subs, s)
	}
	c.mu.Unlock()
	sort.Slice(subs, func(i, j int) bool { return subs[i].id < subs[j].id })
	for _, s := range subs {
		timeout := c.cfg.requestTimeout
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		m := Message{
			Type: msgSubscribe, Proxy: s.proxy, Topics: s.topics, Keywords: s.keywords,
			Part: s.part, sub: s, // the read loop rebinds s (bindLocked)
		}
		if fn := c.cfg.ringVersion; fn != nil {
			m.Ring = fn()
		}
		_, err := c.exchange(ctx, cc, m)
		cancel()
		if err != nil {
			select {
			case <-cc.done:
				return false
			default:
			}
			if errors.Is(err, errRetryable) {
				// Transport trouble (timeout on a live connection):
				// treat the connection as unusable and back off rather
				// than dropping the entry.
				return false
			}
			// A server-side rejection (the subscription was accepted
			// once, so this is unexpected): drop this entry and keep
			// the rest alive.
			continue
		}
		if cm := c.metrics; cm != nil {
			cm.resubscribes.Inc()
		}
	}
	return true
}

// heartbeat probes cc for liveness until the connection dies: it pings
// every interval and severs the connection when nothing has been read
// for longer than the heartbeat timeout.
func (c *Client) heartbeat(cc *clientConn) {
	ticker := time.NewTicker(c.cfg.heartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			idle := time.Since(time.Unix(0, cc.lastRead.Load()))
			if idle > c.cfg.heartbeatTimeout {
				if cm := c.metrics; cm != nil {
					cm.heartbeatTimeouts.Inc()
				}
				_ = cc.conn.Close() // read loop exits; supervisor takes over
				return
			}
			// Seq 0: the pong is dropped by the read loop, but it
			// refreshes lastRead.
			_ = cc.send(&Message{Type: msgPing})
		case <-cc.stopHB:
			return
		case <-cc.done:
			return
		}
	}
}

func (c *Client) readLoop(cc *clientConn) {
	var m Message
	for {
		payload, err := cc.codec.ReadFrame(cc.br, cc.rbuf, cc.maxFrame)
		if payload != nil {
			cc.rbuf = payload
		}
		if err != nil {
			var tle *FrameTooLargeError
			if errors.As(err, &tle) {
				// The oversized frame was discarded and the stream is
				// still framed; whoever awaited it times out.
				continue
			}
			return
		}
		cc.lastRead.Store(time.Now().UnixNano())
		if err := cc.codec.DecodeFrame(payload, &m); err != nil {
			continue
		}
		switch m.Type {
		case msgNotify:
			if m.Gap > 0 {
				// A gap marker: the broker dropped this many
				// notifications bound for us (drop-oldest evictions, or
				// frames it could not send). Surface the hole instead of
				// letting the stream silently lie.
				if cm := c.metrics; cm != nil {
					cm.notifyGaps.Add(m.Gap)
				}
				if c.cfg.onGap != nil {
					c.cfg.onGap(m.Gap)
				}
			}
			if m.Notification != nil {
				c.deliver(cc, &m)
			}
		case msgResponse:
			if m.Ring != 0 {
				for {
					cur := c.serverRing.Load()
					if m.Ring <= cur || c.serverRing.CompareAndSwap(cur, m.Ring) {
						break
					}
				}
			}
			if m.Seq == 0 {
				continue // ping pong, or a response nobody correlates
			}
			c.mu.Lock()
			if p, ok := c.pending[m.Seq]; ok {
				if p.sub != nil && m.OK && m.SubID != 0 {
					// Bind the subscription before the next frame is
					// decoded: a notify for it may follow at once (or
					// even have preceded this response on the wire).
					c.bindLocked(p.sub, m.SubID)
				}
				// Buffered, delivered under c.mu (exchange recycles the
				// channel only after removing it from the map under the
				// same mutex); if the waiter already gave up the message
				// is dropped and drained at recycle time.
				select {
				case p.ch <- m:
				default:
				}
			}
			c.mu.Unlock()
		}
	}
}

// bindLocked records that server subscription sid now carries the
// client subscription s, replacing s's previous server ID. Callers hold
// c.mu.
func (c *Client) bindLocked(s *clientSub, sid int64) {
	c.unbindLocked(s.serverID, s.id)
	s.serverID = sid
	c.byServer.Set(sid, s.id)
}

// unbindLocked drops server ID sid's mapping if it still names client
// subscription id; a later bind may have handed sid to another. Callers
// hold c.mu.
func (c *Client) unbindLocked(sid, id int64) {
	if cid, ok := c.byServer.Get(sid); ok && cid == id {
		c.byServer.Delete(sid)
	}
}

// deliver hands one notify frame to the notification callback: the
// WithNotify callback once per subscription the frame carries,
// Notification.SubscriptionID first and then MoreSubIDs, in order; the
// WithNotifyContext callback once for the whole frame. Server IDs map
// to client IDs under c.mu, in one cursor walk per frame (the server
// sends a run's IDs ascending); a server ID with no mapping
// is dropped, since passing it on would name whichever client
// subscription happens to share the number. The delivery-latency
// histogram gets one sample per notification.
func (c *Client) deliver(cc *clientConn, m *Message) {
	count := int64(1 + len(m.MoreSubIDs))
	if cm := c.metrics; cm != nil && m.PublishedAt > 0 {
		h := cm.deliveryLatency.With(cc.codecName)
		if m.Trace != "" {
			if sc, err := telemetry.ParseSpanContext(m.Trace); err == nil {
				h.ObserveExemplar(m.PublishedAt, sc.TraceID)
				count--
			}
		}
		h.ObserveN(m.PublishedAt, count)
	}
	if c.cfg.notify == nil && c.cfg.notifyCtx == nil {
		return
	}
	ids := append(append(cc.ids[:0], m.Notification.SubscriptionID), m.MoreSubIDs...)
	cc.ids = ids
	mapped := ids[:0]
	c.mu.Lock()
	cur := c.byServer.Cursor()
	for _, sid := range ids {
		if cid, ok := cur.Find(sid); ok {
			mapped = append(mapped, cid)
		}
	}
	c.mu.Unlock()
	ids = mapped
	if len(ids) == 0 {
		return
	}
	n := *m.Notification
	if c.cfg.notifyCtx == nil {
		for _, id := range ids {
			n.SubscriptionID = id
			c.cfg.notify(n)
		}
		return
	}
	if m.PublishedAt > 0 {
		// Re-base the upstream broker's elapsed latency onto this
		// process's monotonic clock, so a relay hop (a cluster edge node
		// forwarding the notify to its own subscribers) accumulates the
		// budget into the next frame's PublishedAt instead of resetting
		// it — and every notification of the frame shares one ingress
		// instant, so the relay's writer can coalesce them again.
		// Duration arithmetic only — no cross-machine timestamp is ever
		// compared.
		n.ingress = time.Now().Add(-time.Duration(m.PublishedAt))
	}
	n.SubscriptionID = ids[0]
	c.cfg.notifyCtx(c.notifyContext(m.Trace), n, ids)
}

// notifyContext builds the context handed to the WithNotifyContext
// callback: the client's span collector (when tracing is on) plus the
// notify frame's trace context as remote parent (when present and
// well-formed).
func (c *Client) notifyContext(trace string) context.Context {
	ctx := context.Background()
	if c.cfg.spans != nil {
		ctx = telemetry.WithSpanCollector(ctx, c.cfg.spans)
	}
	if trace != "" {
		if sc, err := telemetry.ParseSpanContext(trace); err == nil {
			ctx = telemetry.WithRemoteSpanContext(ctx, sc)
		}
	}
	return ctx
}

// Close shuts the client down permanently: the connection is closed,
// reconnection stops, and in-flight requests fail.
func (c *Client) Close() error {
	c.closeOnce.Do(func() { close(c.closeCh) })
	c.mu.Lock()
	already := c.closed
	c.closed = true
	cc := c.cur
	c.mu.Unlock()
	var err error
	if cc != nil {
		err = cc.conn.Close()
	}
	<-c.done
	if already {
		return nil
	}
	return err
}

// Connected reports whether a connection is currently live.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur != nil
}

// waitConn blocks until a connection is live, the client dies, or ctx
// expires.
func (c *Client) waitConn(ctx context.Context) (*clientConn, error) {
	for {
		c.mu.Lock()
		if c.closed || c.dead {
			c.mu.Unlock()
			return nil, ErrClientClosed
		}
		if cc := c.cur; cc != nil {
			c.mu.Unlock()
			select {
			case <-cc.done:
				// Dead but not yet retired by the supervisor: yield so a
				// retry does not burn its whole budget against a corpse.
				select {
				case <-time.After(time.Millisecond):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				continue
			default:
				return cc, nil
			}
		}
		w := c.connWait
		c.mu.Unlock()
		select {
		case <-w:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// retryable reports whether requests of this type are idempotent and
// may be transparently retried. Publish is excluded: replaying it could
// double-publish a version. Handoff is retryable because partition
// state import is additive and replay-safe.
func retryable(msgType string) bool {
	switch msgType {
	case msgFetch, msgSubscribe, msgUnsubscribe, msgPing, msgHandoff:
		return true
	}
	return false
}

// roundTrip performs one request/response exchange, retrying idempotent
// requests after connection loss or per-attempt timeout, up to the
// retry budget. When tracing is configured (WithClientTracer) or the
// caller's context already carries a trace, the exchange is wrapped in
// a transport.client.<type> span whose identity rides the request
// frame, so the server parents its handling under it.
func (c *Client) roundTrip(ctx context.Context, m Message) (Message, error) {
	if c.cfg.spans != nil && telemetry.SpanFromContext(ctx) == nil && telemetry.SpanCollectorFromContext(ctx) == nil {
		ctx = telemetry.WithSpanCollector(ctx, c.cfg.spans)
	}
	ctx, sp := telemetry.StartSpan(ctx, clientSpanNames[wireTypeKey(m.Type)])
	if sp != nil {
		sp.SetAttr("addr", c.addr)
		m.Trace = sp.Context().String()
		defer sp.End()
	} else if sc := telemetry.SpanContextFromContext(ctx); sc.Valid() {
		// Tracing is off locally but the caller carries a remote trace:
		// still propagate it so downstream spans join that trace.
		m.Trace = sc.String()
	}
	resp, err := c.roundTripRetry(ctx, m)
	sp.SetError(err)
	return resp, err
}

// maxOverloadWaits bounds how many back-off-and-retry rounds one call
// spends against a broker that keeps answering "overloaded"; past it
// the rejection surfaces to the caller.
const maxOverloadWaits = 3

// roundTripRetry is the retry loop under roundTrip's span.
func (c *Client) roundTripRetry(ctx context.Context, m Message) (Message, error) {
	budget := 0
	if retryable(m.Type) {
		budget = c.cfg.retryBudget
	}
	overloadWaits := 0
	for retries := 0; ; {
		resp, err := c.attempt(ctx, m)
		if err == nil {
			return resp, nil
		}
		// Respect the caller's context unconditionally.
		if ctx.Err() != nil {
			return Message{}, err
		}
		if IsOverloaded(err) && overloadWaits < maxOverloadWaits {
			// Admission control rejected the request before executing it,
			// so retrying cannot double-apply anything — even a publish.
			// Back off with jitter (a thundering immediate retry is what
			// keeps an overloaded broker overloaded) and do NOT consume
			// the idempotent retry budget: this is the broker protecting
			// itself, not the transport failing.
			overloadWaits++
			if cm := c.metrics; cm != nil {
				cm.overloadBackoffs.Inc()
			}
			if !c.overloadPause(ctx, overloadWaits) {
				return Message{}, err
			}
			continue
		}
		if retries >= budget || !errors.Is(err, errRetryable) {
			return Message{}, err
		}
		retries++
		if cm := c.metrics; cm != nil {
			cm.retries.Inc()
		}
	}
}

// overloadPause sleeps the jittered backoff between overload-rejected
// attempts; false means the caller's context (or the client) ended the
// wait and the request should fail now.
func (c *Client) overloadPause(ctx context.Context, attempt int) bool {
	c.overloadMu.Lock()
	d := c.cfg.backoff.delay(attempt, c.overloadRng)
	c.overloadMu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-c.closeCh:
		return false
	}
}

// errRetryable marks transport-level failures that idempotent requests
// may retry: connection loss and per-attempt timeouts.
var errRetryable = errors.New("broker: retryable transport failure")

// pendingReq is an in-flight request awaiting its response: the channel
// the read loop delivers it on, and, for a subscribe, the registry entry
// the read loop binds to the server's subscription ID.
type pendingReq struct {
	ch  chan Message
	sub *clientSub
}

// respChanPool recycles response-correlation channels across requests:
// one buffered channel per in-flight request, reused once the request
// resolves.
var respChanPool = sync.Pool{New: func() any { return make(chan Message, 1) }}

// attempt runs a single request attempt under the per-request deadline.
func (c *Client) attempt(ctx context.Context, m Message) (Message, error) {
	// The ring-version header is stamped per attempt, so a retry after a
	// stale-ring rejection carries the sender's refreshed view.
	if fn := c.cfg.ringVersion; fn != nil && m.Ring == 0 {
		m.Ring = fn()
	}
	actx := ctx
	if c.cfg.requestTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.cfg.requestTimeout)
		defer cancel()
	}
	// Propagate the remaining budget on the wire (re-stamped per
	// attempt, so a retry carries what is actually left). The server
	// bounds its handling by it and refuses the work once it expires —
	// relative milliseconds, so peer clock skew cannot corrupt it.
	if dl, ok := actx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			// Expired before the attempt even started: don't put work on
			// the wire nobody can use.
			if err := actx.Err(); err != nil {
				return Message{}, err
			}
			return Message{}, context.DeadlineExceeded
		}
		m.DeadlineMS = rem.Milliseconds() + 1
	}
	cc, err := c.waitConn(actx)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			// The attempt timed out waiting for a connection but the
			// caller is still interested: retryable.
			return Message{}, fmt.Errorf("%w: no connection: %w", errRetryable, err)
		}
		return Message{}, err
	}
	return c.exchange(actx, cc, m)
}

// exchange sends m on cc and waits for the correlated response. The
// pending-reply entry is removed on every exit path — including caller
// cancellation — so an abandoned request cannot leak its entry or
// misdeliver a late response to the next request.
func (c *Client) exchange(ctx context.Context, cc *clientConn, m Message) (Message, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Message{}, ErrClientClosed
	}
	c.seq++
	seq := c.seq
	ch := respChanPool.Get().(chan Message)
	c.pending[seq] = pendingReq{ch: ch, sub: m.sub}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		// Deliveries happen under c.mu against the map entry, so after
		// the delete nothing can send on ch anymore: drain whatever
		// raced in and recycle the channel.
		select {
		case <-ch:
		default:
		}
		respChanPool.Put(ch)
	}()

	m.Seq = seq
	cm := c.metrics
	var start time.Time
	if cm != nil {
		start = time.Now()
	}
	if err := cc.send(&m); err != nil {
		return Message{}, fmt.Errorf("%w: send: %w", errRetryable, err)
	}
	select {
	case resp := <-ch:
		if cm != nil {
			if h, ok := cm.rtt[m.Type]; ok {
				h.Observe(time.Since(start).Nanoseconds())
			}
		}
		if resp.Error != "" {
			return resp, errors.New(resp.Error)
		}
		return resp, nil
	case <-cc.done:
		return Message{}, fmt.Errorf("%w: %w", errRetryable, ErrConnectionLost)
	case <-ctx.Done():
		if cm != nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			cm.timeouts.Inc()
		}
		err := ctx.Err()
		if errors.Is(err, context.DeadlineExceeded) {
			return Message{}, fmt.Errorf("%w: %w", errRetryable, err)
		}
		return Message{}, err
	}
}

// pendingCount reports the number of in-flight request entries; tests
// use it to verify abandoned requests clean up after themselves.
func (c *Client) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Subscribe registers a subscription for the given proxy and returns
// its client-side ID, which stays valid across reconnects.
// Notifications arrive via the WithNotify callback with SubscriptionID
// set to this ID.
func (c *Client) Subscribe(ctx context.Context, proxy int, topics, keywords []string) (int64, error) {
	return c.subscribe(ctx, 0, proxy, topics, keywords)
}

// SubscribePartition is Subscribe scoped to one partition of a
// clustered peer: the subscription is registered in that partition's
// registry only, and the partition header rides every resubscribe
// after a reconnect. Cluster member links use it to pin a
// subscription to the partition they resolved as the topic's owner.
func (c *Client) SubscribePartition(ctx context.Context, partition, proxy int, topics, keywords []string) (int64, error) {
	if partition < 0 {
		return 0, fmt.Errorf("broker: negative partition %d", partition)
	}
	return c.subscribe(ctx, partition+1, proxy, topics, keywords)
}

// subscribe sends the subscribe frame (part is the wire partition
// header, 0 = unrouted) and records the registry entry.
func (c *Client) subscribe(ctx context.Context, part, proxy int, topics, keywords []string) (int64, error) {
	c.mu.Lock()
	c.nextSubID++
	s := &clientSub{
		id:       c.nextSubID,
		proxy:    proxy,
		topics:   append([]string(nil), topics...),
		keywords: append([]string(nil), keywords...),
		part:     part,
	}
	c.mu.Unlock()
	// The read loop binds s to its server ID when the response arrives
	// (bindLocked), before it reads any notification that follows.
	_, err := c.roundTrip(ctx, Message{
		Type: msgSubscribe, Proxy: proxy, Topics: topics, Keywords: keywords, Part: part,
		sub: s,
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		// A response may have bound s after its waiter gave up.
		c.unbindLocked(s.serverID, s.id)
		return 0, err
	}
	c.subs[s.id] = s
	return s.id, nil
}

// Unsubscribe removes a subscription by its client-side ID.
func (c *Client) Unsubscribe(ctx context.Context, id int64) error {
	c.mu.Lock()
	s, ok := c.subs[id]
	var serverID int64
	if ok {
		serverID = s.serverID
		delete(c.subs, id)
		c.unbindLocked(serverID, id)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSubscription, id)
	}
	_, err := c.roundTrip(ctx, Message{Type: msgUnsubscribe, SubID: serverID})
	return err
}

// Subscriptions reports the number of live client-side subscriptions.
func (c *Client) Subscriptions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs)
}

// Publish publishes content and returns the matched subscription count.
// Publish is not idempotent and is never retried automatically: on
// connection loss the caller decides whether to replay.
func (c *Client) Publish(ctx context.Context, content Content) (int, error) {
	return c.publish(ctx, 0, content)
}

// PublishPartition is Publish scoped to one partition of a clustered
// peer: the receiver applies the content to that partition's engine
// only instead of re-routing it, and rejects the request with a
// stale-ring error when it no longer owns the partition.
func (c *Client) PublishPartition(ctx context.Context, partition int, content Content) (int, error) {
	if partition < 0 {
		return 0, fmt.Errorf("broker: negative partition %d", partition)
	}
	return c.publish(ctx, partition+1, content)
}

func (c *Client) publish(ctx context.Context, part int, content Content) (int, error) {
	resp, err := c.roundTrip(ctx, Message{
		Type: msgPublish, ID: content.ID, Version: content.Version,
		Topics: content.Topics, Keywords: content.Keywords,
		BodyRaw: content.Body,
		Part:    part,
	})
	if err != nil {
		return 0, err
	}
	return resp.Matched, nil
}

// Handoff transfers partition state to the peer: the payload is the
// cluster layer's snapshot stream for the partition, ringVersion the
// ring revision the transfer belongs to. Import on the receiver is
// additive and replay-safe, so handoffs retry like idempotent
// requests.
func (c *Client) Handoff(ctx context.Context, partition int, ringVersion uint64, payload []byte) error {
	if partition < 0 {
		return fmt.Errorf("broker: negative partition %d", partition)
	}
	_, err := c.roundTrip(ctx, Message{
		Type: msgHandoff, Part: partition + 1, Ring: ringVersion,
		BodyRaw: payload,
	})
	return err
}

// Fetch retrieves the current content of a page.
func (c *Client) Fetch(ctx context.Context, pageID string) (Content, error) {
	return c.fetch(ctx, 0, pageID)
}

// FetchPartition is Fetch scoped to one partition of a clustered
// peer: the receiver reads that partition's store directly instead of
// probing the cluster. Routers use it to sweep partitions for a page
// without forwarding loops.
func (c *Client) FetchPartition(ctx context.Context, partition int, pageID string) (Content, error) {
	if partition < 0 {
		return Content{}, fmt.Errorf("broker: negative partition %d", partition)
	}
	return c.fetch(ctx, partition+1, pageID)
}

func (c *Client) fetch(ctx context.Context, part int, pageID string) (Content, error) {
	resp, err := c.roundTrip(ctx, Message{Type: msgFetch, ID: pageID, Part: part})
	if err != nil {
		return Content{}, err
	}
	body, err := resp.bodyBytes()
	if err != nil {
		return Content{}, fmt.Errorf("broker: bad body encoding: %w", err)
	}
	return Content{
		ID: resp.ID, Version: resp.Version,
		Topics: resp.Topics, Keywords: resp.Keywords,
		Body: body,
	}, nil
}

// Ping round-trips a liveness probe.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, Message{Type: msgPing})
	return err
}

// Codec reports the name of the wire codec negotiated on the current
// connection ("binary", "json", ...), or "" when no connection is
// live. Reconnects renegotiate, so the value can change over the
// client's life (e.g. after a rolling downgrade of the server).
func (c *Client) Codec() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur != nil {
		return c.cur.codecName
	}
	return ""
}

// ServerRingVersion reports the highest cluster ring version observed
// in this server's responses, 0 when the peer is not clustered (or
// nothing has round-tripped yet). Cluster failure detectors use it to
// keep ring versions comparable across members.
func (c *Client) ServerRingVersion() uint64 {
	return c.serverRing.Load()
}
