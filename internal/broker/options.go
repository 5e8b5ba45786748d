package broker

import (
	"context"
	"net"
	"time"

	"pubsubcd/internal/telemetry"
)

// This file is the transport's unified options-based configuration
// surface: NewServer and Dial take variadic functional options. (The
// pre-options ServerOptions/ClientOptions structs and their
// NewServerWith/DialWith wrappers are gone; build option lists
// instead.)

// serverConfig is the resolved server configuration.
type serverConfig struct {
	idleTimeout  time.Duration // 0 = default, negative = disabled
	writeTimeout time.Duration
	telemetry    *telemetry.Registry
	spans        *telemetry.SpanCollector
	listener     net.Listener // non-nil overrides addr
	codecs       []Codec      // negotiable codecs; nil = binary+json
	maxFrame     int          // frame-size limit; 0 = DefaultMaxFrame

	// Overload plane.
	slowPolicy        SlowConsumerPolicy
	maxPendingPerConn int64           // notify-queue byte bound per conn; 0 = default
	quarantine        time.Duration   // sever-policy quarantine; 0 = default, negative = disabled
	admission         AdmissionConfig // zero value = admission control off
}

// ServerOption configures a transport Server.
type ServerOption func(*serverConfig)

// WithIdleTimeout bounds how long a connection may stay silent (no
// inbound messages) before the server closes it. 0 means
// DefaultIdleTimeout; negative disables the read deadline.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.idleTimeout = d }
}

// WithWriteTimeout bounds each outbound server write (responses and
// notifications). 0 means DefaultWriteTimeout; negative disables.
func WithWriteTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.writeTimeout = d }
}

// WithServerTelemetry wires the server's transport metrics (connection
// lifecycle, bytes in/out, per-message-type counts and handle latency,
// timeout counters) into reg. Nil disables telemetry.
func WithServerTelemetry(reg *telemetry.Registry) ServerOption {
	return func(c *serverConfig) { c.telemetry = reg }
}

// WithServerTracer enables distributed tracing on the server: every
// request is wrapped in a transport.server.<type> span (parented under
// the client's span when the frame carries a trace context), the
// broker stages it triggers become child spans, and notify frames sent
// to subscribers carry the trace onward. Nil disables tracing.
func WithServerTracer(c *telemetry.SpanCollector) ServerOption {
	return func(cfg *serverConfig) { cfg.spans = c }
}

// WithListener serves on an existing listener instead of binding addr.
// The server takes ownership and closes it on Close. This is the hook
// the fault-injection harness (faultnet) uses to interpose on accepted
// connections.
func WithListener(ln net.Listener) ServerOption {
	return func(c *serverConfig) { c.listener = ln }
}

// WithCodec sets the codecs the server is willing to negotiate, in
// server preference order (the client's offer order wins; this set
// only gates membership). The default is BinaryCodec then JSONCodec.
// Whatever the set, every connection starts — and a peer that never
// negotiates stays — in line-delimited JSON: restricting the set to
// exclude JSON only refuses *upgrades* to it, it cannot lock out
// legacy peers. Nil codecs are ignored.
func WithCodec(codecs ...Codec) ServerOption {
	return func(c *serverConfig) {
		c.codecs = c.codecs[:0]
		for _, cd := range codecs {
			if cd != nil {
				c.codecs = append(c.codecs, cd)
			}
		}
	}
}

// WithMaxFrame bounds the size of a single wire frame, replacing
// DefaultMaxFrame (16 MiB). Inbound frames over the limit are
// discarded — with an error response, keeping the connection alive —
// and outbound frames over it fail the send with *FrameTooLargeError.
// The hello exchange negotiates the min of both sides' limits.
func WithMaxFrame(n int) ServerOption {
	return func(c *serverConfig) { c.maxFrame = n }
}

// WithSlowConsumerPolicy selects what happens to a connection whose
// bounded notify queue overflows — i.e. a subscriber reading slower
// than the broker fans out. The default is SlowConsumerBlock: wait up
// 5s for the queue to drain, then sever.
// Whatever the policy, control frames (responses, heartbeat pongs)
// bypass the notify queue entirely, so a deep backlog can never
// suppress liveness traffic.
func WithSlowConsumerPolicy(p SlowConsumerPolicy) ServerOption {
	return func(c *serverConfig) { c.slowPolicy = p }
}

// WithMaxPendingPerConn bounds the bytes of notifications queued
// toward one connection before its slow-consumer policy applies.
// 0 keeps the default (256 KiB).
func WithMaxPendingPerConn(bytes int64) ServerOption {
	return func(c *serverConfig) { c.maxPendingPerConn = bytes }
}

// WithQuarantine sets how long SlowConsumerSever rejects reconnects
// from a severed consumer's host. 0 keeps DefaultQuarantine; negative
// disables quarantining (sever only).
func WithQuarantine(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.quarantine = d }
}

// WithAdmissionControl enables broker-wide admission control with the
// given watermarks; see AdmissionConfig. A zero config disables it.
func WithAdmissionControl(cfg AdmissionConfig) ServerOption {
	return func(c *serverConfig) { c.admission = cfg }
}

// clientConfig is the resolved client configuration.
type clientConfig struct {
	notify    func(Notification)
	notifyCtx func(context.Context, Notification, []int64)
	onGap     func(missed int64)
	telemetry *telemetry.Registry
	spans     *telemetry.SpanCollector

	reconnect     bool
	backoff       BackoffPolicy
	maxReconnects int // 0 = unlimited

	heartbeatInterval time.Duration // 0 = default when reconnecting, negative = disabled
	heartbeatTimeout  time.Duration

	retryBudget    int           // -1 = default (2 when reconnecting, else 0)
	requestTimeout time.Duration // per-attempt deadline; 0 = caller context only

	dialTimeout time.Duration
	dialFunc    func(ctx context.Context, addr string) (net.Conn, error)
	onState     func(ConnState)

	ringVersion func() uint64

	codecs   []Codec // negotiation preference order; nil = binary+json
	maxFrame int     // frame-size limit; 0 = DefaultMaxFrame
}

// defaultClientConfig returns the pre-option client configuration.
func defaultClientConfig() clientConfig {
	return clientConfig{
		retryBudget: -1,
		dialTimeout: 5 * time.Second,
	}
}

// resolve finalises derived defaults after all options have applied.
func (c *clientConfig) resolve() {
	c.backoff = c.backoff.normalized()
	if c.retryBudget < 0 {
		if c.reconnect {
			c.retryBudget = 2
		} else {
			c.retryBudget = 0
		}
	}
	switch {
	case c.heartbeatInterval < 0:
		c.heartbeatInterval = 0 // disabled
	case c.heartbeatInterval == 0 && c.reconnect:
		c.heartbeatInterval = 15 * time.Second
	}
	if c.heartbeatInterval > 0 && c.heartbeatTimeout <= 0 {
		c.heartbeatTimeout = 3 * c.heartbeatInterval
	}
	if c.dialFunc == nil {
		c.dialFunc = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if len(c.codecs) == 0 {
		c.codecs = defaultCodecs()
	}
	if c.maxFrame <= 0 {
		c.maxFrame = DefaultMaxFrame
	}
}

// ClientOption configures a transport Client.
type ClientOption func(*clientConfig)

// WithNotify installs the notification callback: fn is invoked for
// every notification delivered to this connection's subscriptions. The
// Notification's SubscriptionID is the client-side subscription ID
// returned by Subscribe (stable across reconnects).
func WithNotify(fn func(Notification)) ClientOption {
	return func(c *clientConfig) { c.notify = fn }
}

// WithNotifyContext installs a context-aware notification callback,
// called once per notify frame: n is the frame's notification (its
// SubscriptionID is ids[0]) and ids lists the client-side subscription
// IDs the frame carries, in order — several when the broker coalesced
// one publish's notifications for this connection. ids is only valid
// during the call. ctx carries the trace context the notify frame
// arrived with (when the sender traced it and a collector is configured
// via WithClientTracer), so work triggered by the notification
// continues the publisher's distributed trace; n carries the publish's
// elapsed broker-side latency, so a broker relaying the notification
// accumulates it. When both WithNotify and WithNotifyContext are set,
// only fn is invoked.
func WithNotifyContext(fn func(ctx context.Context, n Notification, ids []int64)) ClientOption {
	return func(c *clientConfig) { c.notifyCtx = fn }
}

// WithNotifyGap observes wire-visible notification gaps: when the
// broker's drop-oldest slow-consumer policy evicted notifications
// bound for this connection, the next notify flush carries a gap
// marker and fn receives the count of missed deliveries. Use it to
// trigger a re-fetch of current state instead of trusting a stream
// that is known to have holes. Gaps are also counted in
// transport.client.notify_gaps when telemetry is on.
func WithNotifyGap(fn func(missed int64)) ClientOption {
	return func(c *clientConfig) { c.onGap = fn }
}

// WithClientTracer enables distributed tracing on the client: each
// request wraps in a transport.client.<type> span whose identity rides
// the request frame, and notification contexts (WithNotifyContext)
// carry the sender's trace. Nil disables tracing.
func WithClientTracer(sc *telemetry.SpanCollector) ClientOption {
	return func(c *clientConfig) { c.spans = sc }
}

// WithClientTelemetry wires the client's transport metrics
// (round-trip latency, bytes in/out, timeouts, reconnect/retry/
// resubscribe counters) into reg. Nil disables telemetry.
func WithClientTelemetry(reg *telemetry.Registry) ClientOption {
	return func(c *clientConfig) { c.telemetry = reg }
}

// WithReconnect makes the client survive broker failures: when the
// connection dies (read error or heartbeat timeout) the client redials
// with the given jittered exponential backoff and transparently
// re-establishes every live subscription, so subscription IDs stay
// valid across broker restarts. A zero BackoffPolicy uses
// DefaultBackoff. Reconnection also enables a default heartbeat and a
// retry budget of 2 for idempotent requests; tune those with
// WithHeartbeat and WithRetryBudget.
func WithReconnect(p BackoffPolicy) ClientOption {
	return func(c *clientConfig) {
		c.reconnect = true
		c.backoff = p
	}
}

// WithMaxReconnectAttempts bounds consecutive failed reconnection
// attempts before the client gives up and reports itself closed.
// 0 (the default) retries forever.
func WithMaxReconnectAttempts(n int) ClientOption {
	return func(c *clientConfig) { c.maxReconnects = n }
}

// WithHeartbeat enables liveness probing: every interval the client
// pings the server, and a connection that delivers no data for longer
// than timeout is declared dead (severing it, which triggers
// reconnection when enabled). timeout <= 0 defaults to 3x interval;
// interval < 0 disables the heartbeat.
func WithHeartbeat(interval, timeout time.Duration) ClientOption {
	return func(c *clientConfig) {
		c.heartbeatInterval = interval
		c.heartbeatTimeout = timeout
	}
}

// WithRetryBudget bounds how many times an idempotent request (Fetch,
// Subscribe, Unsubscribe) is transparently retried after a connection
// failure or per-attempt timeout. Publish is never retried: it is not
// idempotent. Negative restores the default (2 when reconnecting,
// else 0).
func WithRetryBudget(n int) ClientOption {
	return func(c *clientConfig) { c.retryBudget = n }
}

// WithRequestTimeout bounds each request attempt (including waiting
// for a live connection) even when the caller's context has no
// deadline. A timed-out attempt consumes one retry from the budget.
// 0 disables the per-attempt deadline.
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) { c.requestTimeout = d }
}

// WithDialTimeout bounds each dial attempt during reconnection.
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) {
		if d > 0 {
			c.dialTimeout = d
		}
	}
}

// WithDialFunc replaces the TCP dialer, e.g. with faultnet's
// fault-injecting dialer.
func WithDialFunc(fn func(ctx context.Context, addr string) (net.Conn, error)) ClientOption {
	return func(c *clientConfig) {
		if fn != nil {
			c.dialFunc = fn
		}
	}
}

// WithPreferredCodec sets the codecs this client offers at hello
// time, in preference order; the server picks the first it supports.
// The default is BinaryCodec then JSONCodec. Passing only JSONCodec
// pins the connection to plain line-JSON and skips the hello entirely
// — byte-identical to the pre-negotiation protocol, for peers that
// predate it. Nil codecs are ignored; reconnects renegotiate with the
// same preferences.
func WithPreferredCodec(codecs ...Codec) ClientOption {
	return func(c *clientConfig) {
		c.codecs = c.codecs[:0]
		for _, cd := range codecs {
			if cd != nil {
				c.codecs = append(c.codecs, cd)
			}
		}
	}
}

// WithClientMaxFrame bounds the size of a single wire frame for this
// client, replacing DefaultMaxFrame (16 MiB). Oversized inbound
// frames are discarded without severing the connection; oversized
// sends fail with *FrameTooLargeError. The hello exchange negotiates
// the min of both sides' limits.
func WithClientMaxFrame(n int) ClientOption {
	return func(c *clientConfig) { c.maxFrame = n }
}

// WithRingVersion stamps every outgoing request with the sender's
// current cluster ring version (re-evaluated per attempt, so retries
// after a stale-ring rejection carry the refreshed view). Cluster
// member links use it; plain clients leave it unset and send
// unversioned requests, which clustered servers accept but re-route.
func WithRingVersion(fn func() uint64) ClientOption {
	return func(c *clientConfig) { c.ringVersion = fn }
}

// WithConnStateHook observes connection state transitions
// (StateConnected, StateReconnecting, StateClosed). The hook is called
// from the client's internal goroutines and must not block.
func WithConnStateHook(fn func(ConnState)) ClientOption {
	return func(c *clientConfig) { c.onState = fn }
}

// ConnState is a client connection lifecycle state, reported through
// WithConnStateHook.
type ConnState int

const (
	// StateConnected: a connection is live and subscriptions are
	// (re-)established.
	StateConnected ConnState = iota
	// StateReconnecting: the connection died and the client is
	// redialling with backoff.
	StateReconnecting
	// StateClosed: the client is permanently done (Close was called,
	// reconnection is disabled, or the attempt limit was exhausted).
	StateClosed
)

// String names the state.
func (s ConnState) String() string {
	switch s {
	case StateConnected:
		return "connected"
	case StateReconnecting:
		return "reconnecting"
	case StateClosed:
		return "closed"
	default:
		return "unknown"
	}
}
