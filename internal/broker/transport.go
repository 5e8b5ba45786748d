package broker

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pubsubcd/internal/match"
	"pubsubcd/internal/telemetry"
)

// The wire protocol is framed messages over TCP, in one of the codecs
// defined in codec.go / codec_binary.go (every connection starts in
// line-delimited JSON; a "hello" exchange upgrades it). Each request
// is a message with a type; the server answers every request with
// exactly one response frame (echoing the request's "seq" so clients
// can correlate concurrent requests), and additionally sends
// asynchronous "notify" frames to connections holding subscriptions.
// "ping" requests support client-side liveness probing.

const (
	msgSubscribe   = "subscribe"
	msgUnsubscribe = "unsubscribe"
	msgPublish     = "publish"
	msgFetch       = "fetch"
	msgPing        = "ping"
	msgNotify      = "notify"
	msgResponse    = "response"
	msgHandoff     = "handoff"
	msgHello       = "hello"
)

// Backend is the surface a Server fronts. *Broker implements it; a
// cluster router implements it too, so the same wire protocol serves
// both a single broker and a cluster member.
type Backend interface {
	SubscribeContext(ctx context.Context, sub match.Subscription, n Notifier) (int64, error)
	Unsubscribe(id int64) error
	PublishContext(ctx context.Context, c Content) (int, error)
	FetchContext(ctx context.Context, pageID string) (Content, error)
}

// RingChecker is an optional Backend extension: clustered backends
// validate the routing headers of each forwarded request before it is
// dispatched. version is the sender's ring version (0 = unversioned),
// partition the explicit target partition (-1 = none). A rejection
// should be a stale-ring error (see StaleRingError) so the sender
// re-resolves ownership and retries.
type RingChecker interface {
	CheckRing(version uint64, partition int) error
}

// RingVersioner is an optional Backend extension: when implemented,
// every response frame carries the backend's current ring version, so
// clients learn how far ahead a peer's routing view is without a
// dedicated gossip channel.
type RingVersioner interface {
	RingVersion() uint64
}

// HandoffReceiver is an optional Backend extension: clustered backends
// accept partition state transfers. payload is an opaque blob defined
// by the cluster layer.
type HandoffReceiver interface {
	ReceiveHandoff(ctx context.Context, partition int, ringVersion uint64, payload []byte) error
}

// staleRingPrefix marks rejection errors caused by a stale routing
// view. The marker must survive the wire (errors travel as strings),
// so detection is by prefix, not by errors.Is.
const staleRingPrefix = "stale ring: "

// StaleRingError builds a rejection error that IsStaleRing recognizes
// on both sides of the wire.
func StaleRingError(format string, args ...any) error {
	return fmt.Errorf(staleRingPrefix+format, args...)
}

// IsStaleRing reports whether err is a stale-ring rejection —
// possibly one that round-tripped through the wire as a string.
func IsStaleRing(err error) bool {
	return err != nil && strings.Contains(err.Error(), staleRingPrefix)
}

// notNewerMarker is the text of the broker's version-conflict
// rejection; like the stale-ring marker it must survive the wire.
const notNewerMarker = "not newer than stored"

// IsNotNewer reports whether err is the broker's rejection of a
// publish whose version is not newer than the stored one — possibly
// one that round-tripped through the wire as a string. A bridge or a
// retried cluster forward treats it as "already applied".
func IsNotNewer(err error) bool {
	return err != nil && strings.Contains(err.Error(), notNewerMarker)
}

// Route is the cluster routing metadata of a forwarded request. The
// server attaches it to the request context so a clustered backend can
// distinguish "apply to this partition" forwards from fresh edge
// requests that still need routing.
type Route struct {
	// Partition is the explicit target partition, -1 when absent.
	Partition int
	// Ring is the sender's ring version, 0 when absent.
	Ring uint64
}

type routeCtxKey struct{}

// withRoute attaches routing metadata to ctx.
func withRoute(ctx context.Context, r Route) context.Context {
	return context.WithValue(ctx, routeCtxKey{}, r)
}

// RouteFromContext returns the routing metadata attached by the
// transport, if any.
func RouteFromContext(ctx context.Context) (Route, bool) {
	r, ok := ctx.Value(routeCtxKey{}).(Route)
	return r, ok
}

// Default connection deadlines. A stalled or vanished peer must not
// wedge a handler goroutine forever: every write is bounded by the
// write timeout, and a connection that stays completely silent longer
// than the idle timeout is closed.
const (
	DefaultIdleTimeout  = 10 * time.Minute
	DefaultWriteTimeout = 30 * time.Second
)

// serverMetrics are the server's pre-resolved metric handles; nil means
// telemetry is off.
type serverMetrics struct {
	connsOpened   *telemetry.Counter
	connsClosed   *telemetry.Counter
	activeConns   *telemetry.Gauge
	bytesIn       *telemetry.Counter
	bytesOut      *telemetry.Counter
	readTimeouts  *telemetry.Counter
	writeTimeouts *telemetry.Counter
	badMessages   *telemetry.Counter
	notifySends   *telemetry.Counter
	flushes       *telemetry.Counter
	recv          map[string]*telemetry.Counter
	handleNanos   map[string]*telemetry.Histogram
	negotiated    map[string]*telemetry.Counter // per negotiated codec name

	// Delivery-latency stage timers, measured on the broker's clock:
	// publish ingress → notify enqueued, and notify enqueued → encoded
	// into a flush. Together with broker.stage_ns.ingress_to_match and
	// the client-observed total they decompose the delivery budget.
	stageFanoutEnqueue *telemetry.Histogram
	stageEnqueueFlush  *telemetry.Histogram

	// Overload plane. shed counts dropped/rejected work by class
	// (notify, publish, expired); slowConsumer counts per-connection
	// policy actions (dropped, blocked, severed, quarantined).
	shed          *telemetry.CounterVec
	slowConsumer  *telemetry.CounterVec
	pendingBytes  *telemetry.Gauge
	overloadState *telemetry.Gauge
	inflightPubs  *telemetry.Gauge
}

// Shed classes, the values of the overload.shed{class} counter, in
// shedding-priority order: notifications go first, publishes only past
// the hard watermarks, expired work is refused whenever its propagated
// deadline has already passed.
const (
	shedClassNotify  = "notify"
	shedClassPublish = "publish"
	shedClassExpired = "expired"
)

// wireTypes are the request types the server accounts per-type.
var wireTypes = []string{msgSubscribe, msgUnsubscribe, msgPublish, msgFetch, msgPing, msgHandoff, msgHello}

func newServerMetrics(reg *telemetry.Registry, codecs []Codec) *serverMetrics {
	if reg == nil {
		return nil
	}
	m := &serverMetrics{
		connsOpened:   reg.Counter("transport.server.conns_opened"),
		connsClosed:   reg.Counter("transport.server.conns_closed"),
		activeConns:   reg.Gauge("transport.server.active_conns"),
		bytesIn:       reg.Counter("transport.server.bytes_in"),
		bytesOut:      reg.Counter("transport.server.bytes_out"),
		readTimeouts:  reg.Counter("transport.server.read_timeouts"),
		writeTimeouts: reg.Counter("transport.server.write_timeouts"),
		badMessages:   reg.Counter("transport.server.bad_messages"),
		notifySends:   reg.Counter("transport.server.notify_sends"),
		flushes:       reg.Counter("transport.server.flushes"),
		recv:          make(map[string]*telemetry.Counter, len(wireTypes)+1),
		handleNanos:   make(map[string]*telemetry.Histogram, len(wireTypes)+1),
		negotiated:    make(map[string]*telemetry.Counter, len(codecs)),
		shed:          reg.CounterVec("overload.shed", "class"),
		slowConsumer:  reg.CounterVec("overload.slow_consumer", "action"),
		pendingBytes:  reg.Gauge("overload.pending_bytes"),
		overloadState: reg.Gauge("overload.state"),
		inflightPubs:  reg.Gauge("overload.inflight_publishes"),
	}
	lat := telemetry.LatencyBuckets()
	m.stageFanoutEnqueue = reg.Histogram("transport.server.stage_ns.fanout_enqueue", lat)
	m.stageEnqueueFlush = reg.Histogram("transport.server.stage_ns.enqueue_to_flush", lat)
	for _, t := range append([]string{"unknown"}, wireTypes...) {
		m.recv[t] = reg.Counter("transport.server.recv." + t)
		m.handleNanos[t] = reg.Histogram("transport.server.handle_ns."+t, lat)
	}
	for _, c := range codecs {
		m.negotiated[c.Name()] = reg.Counter("transport.server.negotiated." + c.Name())
	}
	return m
}

// key maps a wire type to its metric key.
func (m *serverMetrics) key(msgType string) string {
	if _, ok := m.recv[msgType]; ok {
		return msgType
	}
	return "unknown"
}

// wireTypeKey maps a wire type to its span-name suffix, collapsing
// unknown types so hostile input cannot mint unbounded span names.
func wireTypeKey(msgType string) string {
	for _, t := range wireTypes {
		if t == msgType {
			return t
		}
	}
	return "unknown"
}

// Server exposes a Backend over TCP.
type Server struct {
	backend      Backend
	ln           net.Listener
	idleTimeout  time.Duration
	writeTimeout time.Duration
	codecs       []Codec // negotiable set, in server preference order
	maxFrame     int
	metrics      *serverMetrics
	spans        *telemetry.SpanCollector // nil = tracing off

	// Overload plane: the per-connection slow-consumer policy, the
	// broker-wide pending fan-out byte count the connWriters maintain,
	// and (when configured) the admission controller watching it.
	slowPolicy    SlowConsumerPolicy
	maxPerConn    int64
	quarantineFor time.Duration
	pending       atomic.Int64
	admission     *admissionController
	admissionOnce sync.Once

	quarMu      sync.Mutex
	quarantined map[string]time.Time // host -> rejected until

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool
}

// NewServer starts a TCP server for a backend — usually a *Broker,
// or a cluster router — on addr (e.g. "127.0.0.1:0"), configured by
// functional options. The returned server is already accepting
// connections. With WithListener, addr is ignored and the provided
// listener is served instead.
func NewServer(b Backend, addr string, opts ...ServerOption) (*Server, error) {
	if b == nil {
		return nil, errors.New("broker: nil backend")
	}
	var cfg serverConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	ln := cfg.listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("broker: listen: %w", err)
		}
	}
	codecs := cfg.codecs
	if len(codecs) == 0 {
		codecs = defaultCodecs()
	}
	maxFrame := cfg.maxFrame
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	s := &Server{
		backend:       b,
		ln:            ln,
		idleTimeout:   defaultTimeout(cfg.idleTimeout, DefaultIdleTimeout),
		writeTimeout:  defaultTimeout(cfg.writeTimeout, DefaultWriteTimeout),
		codecs:        codecs,
		maxFrame:      maxFrame,
		metrics:       newServerMetrics(cfg.telemetry, codecs),
		spans:         cfg.spans,
		slowPolicy:    cfg.slowPolicy,
		maxPerConn:    cfg.maxPendingPerConn,
		quarantineFor: defaultTimeout(cfg.quarantine, DefaultQuarantine),
		quarantined:   make(map[string]time.Time),
		conns:         make(map[net.Conn]struct{}),
	}
	if cfg.admission.enabled() {
		s.admission = newAdmissionController(cfg.admission, &s.pending)
		if sm := s.metrics; sm != nil {
			s.admission.onState = func(state int32, pending, inflight int64) {
				sm.overloadState.Set(int64(state))
				sm.pendingBytes.Set(pending)
				sm.inflightPubs.Set(inflight)
			}
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// OverloadState reports the admission controller's current state name
// ("ok", "shedding", "overloaded") and, when degraded, the reason.
// Without admission control the broker is always "ok". Suitable for
// /readyz degraded-reason reporting.
func (s *Server) OverloadState() (state, reason string) {
	if s.admission == nil {
		return admissionStateNames[admissionOK], ""
	}
	return s.admission.snapshot()
}

// PendingFanoutBytes returns the broker-wide bytes queued toward
// subscribers (unflushed control frames plus queued notifications).
func (s *Server) PendingFanoutBytes() int64 { return s.pending.Load() }

// countShed advances the overload.shed{class} counter.
func (s *Server) countShed(class string) {
	if sm := s.metrics; sm != nil {
		sm.shed.With(class).Inc()
	}
}

// defaultTimeout resolves the 0=default / negative=disabled convention.
func defaultTimeout(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes all connections and waits for the
// handler goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	s.stopAdmission()
	return err
}

// stopAdmission shuts the admission controller's watermark loop down
// exactly once (Close and Shutdown may both run).
func (s *Server) stopAdmission() {
	if s.admission == nil {
		return
	}
	s.admissionOnce.Do(s.admission.close)
}

// Shutdown stops the server gracefully: the listener closes, every
// connection finishes the request it is handling (in-flight publishes
// drain and get their response), and handler goroutines exit.
// Connection-held subscriptions are NOT unsubscribed — on a durable
// broker they must survive into the next incarnation. If ctx expires
// before the drain completes, the remaining connections are closed
// forcefully and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if !alreadyClosed {
		err = s.ln.Close()
	}
	// An immediate read deadline unblocks each handler's scanner; the
	// in-flight request still completes because the deadline only
	// interrupts the next read.
	for _, c := range conns {
		_ = c.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stopAdmission()
		return err
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		<-done
		s.stopAdmission()
		if err == nil {
			err = ctx.Err()
		}
		return err
	}
}

// draining reports whether the server has begun shutting down.
func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Accepting reports whether the server is still accepting traffic —
// false once Close or Shutdown has begun. Suitable as a /readyz check.
func (s *Server) Accepting() bool { return !s.draining() }

// quarantineAddr rejects future connections from remote's host for the
// server's quarantine window (the sever-and-quarantine policy's second
// half: a severed slow consumer must not burn fan-out capacity by
// reconnecting in a tight loop).
func (s *Server) quarantineAddr(remote string) {
	host, _, err := net.SplitHostPort(remote)
	if err != nil {
		host = remote
	}
	s.quarMu.Lock()
	s.quarantined[host] = time.Now().Add(s.quarantineFor)
	s.quarMu.Unlock()
}

// rejectQuarantined reports whether remote's host is quarantined,
// pruning expired entries as it goes.
func (s *Server) rejectQuarantined(remote string) bool {
	host, _, err := net.SplitHostPort(remote)
	if err != nil {
		host = remote
	}
	now := time.Now()
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	until, ok := s.quarantined[host]
	if !ok {
		return false
	}
	if now.After(until) {
		delete(s.quarantined, host)
		return false
	}
	return true
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.rejectQuarantined(conn.RemoteAddr().String()) {
			if sm := s.metrics; sm != nil {
				sm.slowConsumer.With(slowActionQuarantined).Inc()
			}
			_ = conn.Close()
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// isTimeout reports whether err is a network timeout.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// negotiateCodec picks the first codec of the client's offer that the
// server also supports, and the effective frame limit (min of both
// sides). A nil codec means no overlap; the connection stays on JSON.
func (s *Server) negotiateCodec(m *Message) (Codec, int) {
	for _, name := range m.Codecs {
		if c := codecByName(s.codecs, name); c != nil {
			limit := s.maxFrame
			if m.MaxFrame > 0 && m.MaxFrame < limit {
				limit = m.MaxFrame
			}
			return c, limit
		}
	}
	return nil, 0
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	sm := s.metrics
	if sm != nil {
		sm.connsOpened.Inc()
		sm.activeConns.Add(1)
	}
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		if sm != nil {
			sm.connsClosed.Inc()
			sm.activeConns.Add(-1)
		}
	}()

	var bytesIn, bytesOut, writeTimeouts, flushes *telemetry.Counter
	if sm != nil {
		bytesIn, bytesOut = sm.bytesIn, sm.bytesOut
		writeTimeouts, flushes = sm.writeTimeouts, sm.flushes
	}
	// Every connection starts in JSON at the server-wide frame limit; a
	// hello exchange may upgrade both.
	codec := Codec(jsonCodec{})
	maxFrame := s.maxFrame
	br := bufio.NewReaderSize(&countingReader{r: conn, c: bytesIn}, readBufSize)
	cw := newConnWriter(conn, codec, maxFrame, s.writeTimeout, bytesOut, writeTimeouts, flushes)
	var onAction func(action string, n int64)
	if sm != nil {
		onAction = func(action string, n int64) { sm.slowConsumer.With(action).Add(n) }
	}
	var onSever func()
	if s.slowPolicy == SlowConsumerSever && s.quarantineFor > 0 {
		remote := conn.RemoteAddr().String()
		onSever = func() { s.quarantineAddr(remote) }
	}
	cw.configureNotifyLane(s.slowPolicy, s.maxPerConn, &s.pending, onAction, onSever)
	if sm != nil {
		cw.setFlushStage(sm.stageEnqueueFlush)
	}
	// The connection's one notifier: every subscription made on it
	// delivers through it.
	notifier := &connNotifier{s: s, cw: cw}

	var subIDs []int64
	defer func() {
		// A client that left gets its subscriptions cleaned up. A server
		// that is shutting down over a durable backend keeps them: they
		// outlive this process and are recovered on the next Open. On an
		// in-memory backend there is no next incarnation, so shutdown
		// cleans up like a disconnect (clients re-subscribe on redial).
		if s.draining() {
			if d, ok := s.backend.(interface{ Durable() bool }); ok && d.Durable() {
				return
			}
		}
		for _, id := range subIDs {
			_ = s.backend.Unsubscribe(id)
		}
	}()
	// Drain pending responses before the conn closes (the deferred
	// closes above run after this one).
	defer cw.closeFlush(s.writeTimeout)

	var rbuf []byte
	var m, resp Message
	for {
		if s.idleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		// Checked after the deadline reset so a Shutdown that lost the
		// deadline race is still observed before the next blocking read.
		if s.draining() {
			return
		}
		payload, err := codec.ReadFrame(br, rbuf, maxFrame)
		if payload != nil {
			rbuf = payload
		}
		if err != nil {
			var tle *FrameTooLargeError
			if errors.As(err, &tle) {
				// The oversized frame was discarded; the connection (and
				// its subscriptions) survives.
				if sm != nil {
					sm.badMessages.Inc()
				}
				if cw.send(&Message{Type: msgResponse, Error: err.Error()}) != nil {
					return
				}
				continue
			}
			if sm != nil && isTimeout(err) {
				sm.readTimeouts.Inc()
			}
			return
		}
		if err := codec.DecodeFrame(payload, &m); err != nil {
			if sm != nil {
				sm.badMessages.Inc()
			}
			if cw.send(&Message{Type: msgResponse, Error: "malformed message: " + err.Error()}) != nil {
				return
			}
			continue
		}
		var start time.Time
		if sm != nil {
			sm.recv[sm.key(m.Type)].Inc()
			start = time.Now()
		}
		if m.Type == msgHello {
			sel, limit := s.negotiateCodec(&m)
			resp = Message{Type: msgResponse, Seq: m.Seq}
			if sel == nil {
				resp.Error = fmt.Sprintf("no mutually supported codec (server supports %v)", codecNames(s.codecs))
			} else {
				resp.OK = true
				resp.Codec = sel.Name()
				resp.MaxFrame = limit
			}
			if rv, ok := s.backend.(RingVersioner); ok {
				resp.Ring = rv.RingVersion()
			}
			if sm != nil {
				sm.handleNanos[sm.key(m.Type)].Observe(time.Since(start).Nanoseconds())
			}
			// The response rides the old codec; the switch below cannot
			// affect it because frames encode at append time.
			if err := cw.send(&resp); err != nil {
				return
			}
			if sel != nil {
				codec, maxFrame = sel, limit
				cw.setCodec(sel, limit, slices.Contains(m.Caps, capCoalesce))
				if sm != nil {
					if c, ok := sm.negotiated[sel.Name()]; ok {
						c.Inc()
					}
				}
			}
			continue
		}
		ctx, sp := s.requestSpan(&m)
		// A propagated deadline bounds everything this request does
		// downstream (storage, cluster forwards): the broker fails the
		// work the moment the sender's budget is gone instead of
		// finishing it late for nobody.
		var cancel context.CancelFunc
		if m.DeadlineMS > 0 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(m.DeadlineMS)*time.Millisecond)
		}
		resp = s.dispatch(ctx, &m, notifier, &subIDs)
		if cancel != nil {
			cancel()
		}
		if sp != nil {
			if resp.Error != "" {
				sp.SetError(errors.New(resp.Error))
			}
			sp.End()
		}
		if sm != nil {
			sm.handleNanos[sm.key(m.Type)].Observe(time.Since(start).Nanoseconds())
		}
		resp.Seq = m.Seq
		if rv, ok := s.backend.(RingVersioner); ok {
			resp.Ring = rv.RingVersion()
		}
		if err := cw.send(&resp); err != nil {
			var tle *FrameTooLargeError
			if !errors.As(err, &tle) {
				return
			}
			// The response (e.g. a fetched page) exceeds the negotiated
			// frame limit: report that instead of silently dropping the
			// reply or severing the stream.
			resp = Message{Type: msgResponse, Seq: m.Seq, Error: err.Error()}
			if cw.send(&resp) != nil {
				return
			}
		}
	}
}

// requestSpan builds the per-request context: when tracing is on, the
// incoming frame's trace context (if any) becomes the remote parent
// and a transport.server.<type> span wraps the dispatch. With tracing
// off it returns a background context and a nil span.
func (s *Server) requestSpan(m *Message) (context.Context, *telemetry.Span) {
	if s.spans == nil {
		return context.Background(), nil
	}
	ctx := telemetry.WithSpanCollector(context.Background(), s.spans)
	if m.Trace != "" {
		if sc, err := telemetry.ParseSpanContext(m.Trace); err == nil {
			ctx = telemetry.WithRemoteSpanContext(ctx, sc)
		}
	}
	return telemetry.StartSpan(ctx, "transport.server."+wireTypeKey(m.Type))
}

func (s *Server) dispatch(ctx context.Context, m *Message, notifier *connNotifier, subIDs *[]int64) Message {
	if m.Ring != 0 || m.Part != 0 {
		// Handoff frames are exempt: they target a partition the
		// receiver does not own yet — ReceiveHandoff validates them.
		if rc, ok := s.backend.(RingChecker); ok && m.Type != msgHandoff {
			if err := rc.CheckRing(m.Ring, m.Part-1); err != nil {
				return Message{Type: msgResponse, Error: err.Error()}
			}
		}
		ctx = withRoute(ctx, Route{Partition: m.Part - 1, Ring: m.Ring})
	}
	switch m.Type {
	case msgSubscribe:
		id, err := s.backend.SubscribeContext(ctx, match.Subscription{
			Proxy:    m.Proxy,
			Topics:   m.Topics,
			Keywords: m.Keywords,
		}, notifier)
		if err != nil {
			return Message{Type: msgResponse, Error: err.Error()}
		}
		*subIDs = append(*subIDs, id)
		return Message{Type: msgResponse, OK: true, SubID: id}
	case msgUnsubscribe:
		if err := s.backend.Unsubscribe(m.SubID); err != nil {
			return Message{Type: msgResponse, Error: err.Error()}
		}
		return Message{Type: msgResponse, OK: true}
	case msgPublish:
		if err := ctx.Err(); err != nil {
			// The sender's propagated budget is already gone: refuse the
			// work instead of publishing to a caller who stopped waiting.
			s.countShed(shedClassExpired)
			return Message{Type: msgResponse, Error: ExpiredError("publish: %v", err).Error()}
		}
		if s.admission != nil {
			if err := s.admission.admitPublish(); err != nil {
				s.countShed(shedClassPublish)
				return Message{Type: msgResponse, Error: err.Error()}
			}
			defer s.admission.releasePublish()
		}
		body, err := m.bodyBytes()
		if err != nil {
			return Message{Type: msgResponse, Error: "bad body encoding: " + err.Error()}
		}
		matched, err := s.backend.PublishContext(ctx, Content{
			ID:       m.ID,
			Version:  m.Version,
			Topics:   m.Topics,
			Keywords: m.Keywords,
			Body:     body,
		})
		if err != nil {
			if m.DeadlineMS > 0 && ctx.Err() != nil {
				// The budget ran out mid-publish (e.g. a cluster forward
				// that waited behind a dead peer): report it as expired so
				// the sender knows not to retry.
				s.countShed(shedClassExpired)
				err = ExpiredError("publish: %v", err)
			}
			return Message{Type: msgResponse, Error: err.Error()}
		}
		return Message{Type: msgResponse, OK: true, Matched: matched}
	case msgFetch:
		if err := ctx.Err(); err != nil {
			s.countShed(shedClassExpired)
			return Message{Type: msgResponse, Error: ExpiredError("fetch: %v", err).Error()}
		}
		c, err := s.backend.FetchContext(ctx, m.ID)
		if err != nil {
			return Message{Type: msgResponse, Error: err.Error()}
		}
		return Message{
			Type: msgResponse, OK: true, ID: c.ID, Version: c.Version,
			Topics: c.Topics, Keywords: c.Keywords,
			// Raw: the codec decides how bodies travel (the JSON codec
			// base64s at encode time, the binary codec ships the bytes).
			BodyRaw: c.Body,
		}
	case msgPing:
		return Message{Type: msgResponse, OK: true}
	case msgHandoff:
		hr, ok := s.backend.(HandoffReceiver)
		if !ok {
			return Message{Type: msgResponse, Error: "backend does not accept partition handoffs"}
		}
		payload, err := m.bodyBytes()
		if err != nil {
			return Message{Type: msgResponse, Error: "bad handoff encoding: " + err.Error()}
		}
		if err := hr.ReceiveHandoff(ctx, m.Part-1, m.Ring, payload); err != nil {
			return Message{Type: msgResponse, Error: err.Error()}
		}
		return Message{Type: msgResponse, OK: true}
	default:
		return Message{Type: msgResponse, Error: fmt.Sprintf("unknown message type %q", m.Type)}
	}
}
