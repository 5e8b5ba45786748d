// Package pubsubcd is a content distribution library for
// publish/subscribe services, reproducing Chen, LaPaugh and Singh,
// "Content Distribution for Publish/Subscribe Services" (Middleware
// 2003).
//
// The library provides:
//
//   - the paper's content placement/replacement strategies (GD*, SUB,
//     SG1, SG2, SR, DM, DC-FP, DC-AP, DC-LAP) plus classic baselines;
//   - a publish/subscribe matching engine with per-proxy subscription
//     aggregation;
//   - a working broker (in-process and over TCP) whose proxies cache
//     content under any of the strategies;
//   - the paper's synthetic news workload (publishing stream, request
//     streams, subscriptions) and the discrete-event simulator;
//   - drivers that regenerate every table and figure of the paper's
//     evaluation.
//
// This root package re-exports the public API of the internal
// implementation packages, so downstream users only import pubsubcd.
//
// Quick start:
//
//	w, _ := pubsubcd.GenerateWorkload(pubsubcd.DefaultWorkloadConfig(pubsubcd.TraceNEWS))
//	f, _ := pubsubcd.LookupStrategy("SG2")
//	res, _ := pubsubcd.Simulate(w, f, pubsubcd.DefaultSimOptions())
//	fmt.Println(res.HitRatio())
package pubsubcd

import (
	"context"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/cluster"
	"pubsubcd/internal/core"
	"pubsubcd/internal/experiments"
	"pubsubcd/internal/journal"
	"pubsubcd/internal/match"
	"pubsubcd/internal/sim"
	"pubsubcd/internal/telemetry"
	"pubsubcd/internal/telemetry/fleet"
	"pubsubcd/internal/workload"
)

// Strategy layer (the paper's contribution).
type (
	// Strategy is a per-proxy content placement and replacement policy.
	Strategy = core.Strategy
	// StrategyParams configures strategy construction.
	StrategyParams = core.Params
	// StrategyFactory builds per-proxy strategy instances.
	StrategyFactory = core.Factory
	// PageMeta describes a page to a strategy. Its ID is a dense
	// non-negative index: a strategy's memory grows with the largest ID
	// it has cached, and a negative ID is never cached.
	PageMeta = core.PageMeta
	// PlacementTime classifies when a scheme places content (the
	// "when" axis of the paper's Table 1).
	PlacementTime = core.PlacementTime
	// ValueSource classifies what information a scheme uses to value
	// pages (the "how" axis of Table 1).
	ValueSource = core.ValueSource
)

// PlacementTime values.
const (
	PlaceAtAccess = core.PlaceAtAccess
	PlaceAtPush   = core.PlaceAtPush
	PlaceAtBoth   = core.PlaceAtBoth
)

// ValueSource values.
const (
	ValueFromAccess       = core.ValueFromAccess
	ValueFromSubscription = core.ValueFromSubscription
	ValueFromBoth         = core.ValueFromBoth
)

// Strategy constructors, one per scheme in the paper plus the classic
// baselines.
var (
	NewGDStar = core.NewGDStar
	NewSUB    = core.NewSUB
	NewSG1    = core.NewSG1
	NewSG2    = core.NewSG2
	NewSR     = core.NewSR
	NewDM     = core.NewDM
	NewDCFP   = core.NewDCFP
	NewDCAP   = core.NewDCAP
	NewDCLAP  = core.NewDCLAP
	NewLRU    = core.NewLRU
	NewGDS    = core.NewGDS
	NewLFUDA  = core.NewLFUDA
)

// OpStats exposes a strategy's placement-decision counters; every
// strategy in the catalog implements StatsProvider. EvictionReporter
// names the pages each Push or Request evicted; every catalog strategy
// implements it too, and a Proxy drops the evicted pages' bodies.
type (
	OpStats          = core.OpStats
	StatsProvider    = core.StatsProvider
	EvictionReporter = core.EvictionReporter
	// StrategyMetrics streams a strategy's hot-path decisions and
	// sampled latencies into a telemetry registry (StrategyParams.Metrics).
	StrategyMetrics = core.StrategyMetrics
)

// NewStrategyMetrics resolves strategy metric handles as series under
// the given name prefix labeled with the strategy's name (e.g.
// "proxy3.strategy.requests"{strategy="GD*"}).
var NewStrategyMetrics = core.NewStrategyMetrics

// StrategyCatalog returns every available strategy factory (Table 1).
func StrategyCatalog() []StrategyFactory { return core.Catalog() }

// LookupStrategy finds a strategy factory by name (e.g. "DC-LAP").
func LookupStrategy(name string) (StrategyFactory, error) { return core.Lookup(name) }

// Matching engine.
type (
	// Subscription is a stored user interest.
	Subscription = match.Subscription
	// Event is published content as seen by the matching engine.
	Event = match.Event
	// MatchEngine matches events against subscriptions.
	MatchEngine = match.Engine[struct{}]
)

// NewMatchEngine returns an empty matching engine.
func NewMatchEngine() *MatchEngine { return match.NewEngine() }

// Workload generation (§4 of the paper).
type (
	// WorkloadConfig parameterises workload generation.
	WorkloadConfig = workload.Config
	// Workload is a generated workload.
	Workload = workload.Workload
	// TraceName names the NEWS and ALTERNATIVE traces.
	TraceName = workload.TraceName
)

// Trace names.
const (
	TraceNEWS        = workload.TraceNEWS
	TraceALTERNATIVE = workload.TraceALTERNATIVE
)

// DefaultWorkloadConfig returns the paper's full-scale workload
// configuration for a trace.
func DefaultWorkloadConfig(trace TraceName) WorkloadConfig { return workload.DefaultConfig(trace) }

// ScaledWorkloadConfig shrinks the workload by a factor for quick runs.
func ScaledWorkloadConfig(trace TraceName, factor int) WorkloadConfig {
	return workload.ScaledConfig(trace, factor)
}

// GenerateWorkload builds a workload deterministically from its config.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) { return workload.Generate(cfg) }

// LoadWorkload reads a workload trace saved with Workload.SaveFile.
func LoadWorkload(path string) (*Workload, error) { return workload.LoadFile(path) }

// WorkloadAnalysis summarises a workload's distributional properties.
type WorkloadAnalysis = workload.Analysis

// DeriveClosedLoop regenerates a workload's request stream from its
// subscriptions (each subscriber reads with probability SQ after being
// notified).
var DeriveClosedLoop = workload.DeriveClosedLoop

// Simulation.
type (
	// SimOptions configures a simulation run.
	SimOptions = sim.Options
	// SimResult summarises one run.
	SimResult = sim.Result
	// PushScheme selects Always-Pushing vs Pushing-When-Necessary.
	PushScheme = sim.PushScheme
)

// Push schemes (§5.6).
const (
	AlwaysPush        = sim.AlwaysPush
	PushWhenNecessary = sim.PushWhenNecessary
)

// LatencyModel maps cache outcomes to response-time estimates.
type LatencyModel = sim.LatencyModel

// DefaultLatencyModel returns representative WAN latency parameters.
func DefaultLatencyModel() LatencyModel { return sim.DefaultLatencyModel() }

// DefaultSimOptions returns the paper's most common setting (5 %
// capacity, β = 2).
func DefaultSimOptions() SimOptions { return sim.DefaultOptions() }

// Simulate runs a workload under a strategy.
func Simulate(w *Workload, f StrategyFactory, opts SimOptions) (*SimResult, error) {
	return sim.Run(w, f, opts)
}

// Telemetry (metrics registry, latency histograms, span tracing).
type (
	// MetricsRegistry is a lock-cheap registry of named counters,
	// gauges and histograms, snapshot-able without stopping writers.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = telemetry.Snapshot
	// AdminServer serves /metrics, /traces, /trace/{id}, /healthz, /readyz
	// and /debug/pprof over HTTP.
	AdminServer = telemetry.AdminServer
	// AdminOption configures NewAdminServer (span traces, health
	// checks).
	AdminOption = telemetry.AdminOption

	// Span is one stage of a distributed trace; a nil *Span is the
	// zero-cost disabled form.
	Span = telemetry.Span
	// SpanContext is a span's portable identity — what crosses the wire
	// so a peer can continue the trace.
	SpanContext = telemetry.SpanContext
	// SpanCollector retains bounded trace trees (recent, slowest,
	// errored) served on /traces and /trace/{id}.
	SpanCollector = telemetry.SpanCollector
	// SpanCollectorOptions bounds a SpanCollector.
	SpanCollectorOptions = telemetry.CollectorOptions
	// TraceData is one finalised span trace.
	TraceData = telemetry.TraceData

	// CounterVec, GaugeVec and HistogramVec are labeled metric
	// families; With resolves one label combination to an ordinary
	// handle (resolve once on hot paths). Each vec is
	// cardinality-bounded; past the budget, series collapse into one
	// overflow series.
	CounterVec   = telemetry.CounterVec
	GaugeVec     = telemetry.GaugeVec
	HistogramVec = telemetry.HistogramVec
	// ProfileTrigger captures CPU/heap profiles into a bounded ring
	// when the SLO burns or readiness flaps; ProfileConfig tunes the
	// thresholds.
	ProfileTrigger = telemetry.ProfileTrigger
	// ProfileConfig configures NewProfileTrigger.
	ProfileConfig = telemetry.ProfileConfig
	// FleetScraper polls a set of admin endpoints and serves the
	// merged fleet snapshot on /fleet and the SLO report on /fleet/slo.
	FleetScraper = fleet.Scraper
	// FleetOptions configures NewFleetScraper.
	FleetOptions = fleet.Options
	// FleetSnapshot is a merged fleet view with per-node breakdown.
	FleetSnapshot = fleet.Snapshot
	// FleetSLOReport is per-node and fleet-wide SLO attainment plus a
	// windowed burn rate.
	FleetSLOReport = fleet.SLOReport
)

// Telemetry constructors and helpers.
var (
	NewMetricsRegistry = telemetry.NewRegistry
	// NewAdminServer starts the HTTP admin endpoint on addr; the
	// registry may be nil to serve empty metrics.
	NewAdminServer = telemetry.NewAdminServer
	// LatencyBuckets, SizeBuckets and CountBuckets are the standard
	// log-scale histogram layouts.
	LatencyBuckets = telemetry.LatencyBuckets
	SizeBuckets    = telemetry.SizeBuckets
	CountBuckets   = telemetry.CountBuckets

	// Distributed tracing: install a collector in a context with
	// WithSpanCollector, then StartSpan at each stage; spans started
	// without a reachable collector are free no-ops. WithSpans serves a
	// collector on the admin endpoint.
	NewSpanCollector  = telemetry.NewSpanCollector
	StartSpan         = telemetry.StartSpan
	WithSpanCollector = telemetry.WithSpanCollector
	WithSpans         = telemetry.WithSpans
	// NewStructuredLogger builds the slog logger used by the cmds:
	// leveled, text or JSON, and annotated with trace_id/span_id when a
	// record is logged under an active span context.
	NewStructuredLogger = telemetry.NewLogger

	// NewProfileTrigger arms SLO-triggered profile capture; its
	// Handler serves the profile ring. TraceHintFromCollector tags
	// captures with the most interesting retained trace ID.
	NewProfileTrigger      = telemetry.NewProfileTrigger
	TraceHintFromCollector = telemetry.TraceHintFromCollector
	// NewFleetScraper aggregates /metrics across admin endpoints.
	NewFleetScraper = fleet.New
)

// Broker (live publish/subscribe system).
type (
	// Broker is the in-process publish/subscribe broker.
	Broker = broker.Broker
	// BrokerServer exposes a broker over TCP.
	BrokerServer = broker.Server
	// BrokerClient is the resilient TCP client: with WithReconnect it
	// survives broker restarts, redialling with jittered exponential
	// backoff and transparently re-establishing its subscriptions.
	BrokerClient = broker.Client
	// Proxy is a caching content-distribution proxy.
	Proxy = broker.Proxy
	// Content is a published page.
	Content = broker.Content
	// Notification announces a matched page to a subscriber.
	Notification = broker.Notification

	// BrokerServerOption configures NewBrokerServer (deadlines,
	// telemetry, custom listener).
	BrokerServerOption = broker.ServerOption
	// BrokerClientOption configures DialBroker (notification callback,
	// reconnection, heartbeat, retry budget, telemetry, ...).
	BrokerClientOption = broker.ClientOption
	// BackoffPolicy shapes reconnection delays (jittered exponential
	// backoff).
	BackoffPolicy = broker.BackoffPolicy
	// ConnState is a client connection lifecycle state, observed via
	// WithConnStateHook.
	ConnState = broker.ConnState
	// ContentFetcher fetches current page content; *Broker satisfies
	// it, and BrokerClient.Fetcher adapts the TCP client to it.
	ContentFetcher = broker.Fetcher
	// ProxyOption configures NewProxy (an alternate fetch path).
	ProxyOption = broker.ProxyOption
	// BrokerProxyStats counts a proxy's traffic, including degraded
	// serves.
	BrokerProxyStats = broker.ProxyStats
	// RemoteLink bridges a local broker into a remote broker over the
	// resilient client, surviving peer restarts.
	RemoteLink = broker.RemoteLink

	// WireCodec encodes and decodes transport frames. Implementations
	// negotiate by name at connection time; see BinaryCodec and
	// JSONCodec for the built-ins, and WithCodec / WithPreferredCodec
	// to install custom ones.
	WireCodec = broker.Codec
	// WireMessage is one transport frame — the unit a WireCodec
	// encodes and decodes.
	WireMessage = broker.Message
	// FrameTooLargeError reports a frame exceeding the negotiated
	// frame-size limit, on either the read or the write side.
	FrameTooLargeError = broker.FrameTooLargeError
)

// Client connection states.
const (
	StateConnected    = broker.StateConnected
	StateReconnecting = broker.StateReconnecting
	StateClosed       = broker.StateClosed
)

// Cluster (horizontally sharded broker fleet). Topics hash onto a
// fixed partition space; a consistent-hash ring maps partitions onto
// members; partition ownership moves between members via journaled
// handoff when the membership changes. Any plain BrokerClient can
// publish, subscribe, and fetch through any member.
type (
	// ClusterNode is one member of a sharded broker cluster.
	ClusterNode = cluster.Node
	// ClusterConfig describes a member to StartClusterNode.
	ClusterConfig = cluster.Config
	// ClusterRing is the consistent-hash routing table mapping topics
	// to partitions to members.
	ClusterRing = cluster.Ring
)

// StartClusterNode brings a cluster member up.
var StartClusterNode = cluster.Start

// Cluster sizing defaults.
const (
	DefaultClusterPartitions   = cluster.DefaultPartitions
	DefaultClusterVirtualNodes = cluster.DefaultVirtualNodes
)

// Server options.
var (
	// WithIdleTimeout bounds how long a server connection may stay
	// silent before it is closed.
	WithIdleTimeout = broker.WithIdleTimeout
	// WithWriteTimeout bounds each outbound server write.
	WithWriteTimeout = broker.WithWriteTimeout
	// WithServerTelemetry wires server transport metrics into a
	// registry.
	WithServerTelemetry = broker.WithServerTelemetry
	// WithListener serves an existing listener (e.g. a fault-injecting
	// one) instead of binding an address.
	WithListener = broker.WithListener
)

// Client options.
var (
	// WithNotify installs the notification callback.
	WithNotify = broker.WithNotify
	// WithReconnect makes the client survive broker failures with the
	// given backoff policy (zero value = DefaultBackoff()).
	WithReconnect = broker.WithReconnect
	// WithHeartbeat enables liveness probing (interval, timeout).
	WithHeartbeat = broker.WithHeartbeat
	// WithRetryBudget bounds transparent retries of idempotent
	// requests after connection failures.
	WithRetryBudget = broker.WithRetryBudget
	// WithRequestTimeout bounds each request attempt.
	WithRequestTimeout = broker.WithRequestTimeout
	// WithMaxReconnectAttempts bounds consecutive failed reconnection
	// attempts before the client gives up.
	WithMaxReconnectAttempts = broker.WithMaxReconnectAttempts
	// WithClientTelemetry wires client transport metrics (including
	// reconnect/retry/resubscribe counters) into a registry.
	WithClientTelemetry = broker.WithClientTelemetry
	// WithDialTimeout bounds each reconnection dial attempt.
	WithDialTimeout = broker.WithDialTimeout
	// WithDialFunc replaces the TCP dialer (fault injection).
	WithDialFunc = broker.WithDialFunc
	// WithConnStateHook observes connection state transitions.
	WithConnStateHook = broker.WithConnStateHook
	// DefaultBackoff is the default reconnection backoff policy.
	DefaultBackoff = broker.DefaultBackoff
)

// Overload control: slow-consumer isolation, broker-wide admission
// control, and circuit breakers.
type (
	// SlowConsumerPolicy selects what happens to a subscriber that
	// stops reading its notifications (block, drop-oldest, sever).
	SlowConsumerPolicy = broker.SlowConsumerPolicy
	// AdmissionConfig sets the broker's admission watermarks (pending
	// fan-out bytes, in-flight publishes, heap).
	AdmissionConfig = broker.AdmissionConfig
	// Breaker is a three-state circuit breaker (closed, open,
	// half-open with a single probe), as used on cluster member links
	// and remote-link uplinks.
	Breaker = broker.Breaker
	// BreakerState is a Breaker's current state.
	BreakerState = broker.BreakerState
)

// Slow-consumer policies and breaker states.
const (
	SlowConsumerBlock      = broker.SlowConsumerBlock
	SlowConsumerDropOldest = broker.SlowConsumerDropOldest
	SlowConsumerSever      = broker.SlowConsumerSever

	BreakerClosed   = broker.BreakerClosed
	BreakerOpen     = broker.BreakerOpen
	BreakerHalfOpen = broker.BreakerHalfOpen
)

var (
	// ErrOverloaded marks publishes rejected by admission control; a
	// resilient client backs off with jitter instead of burning its
	// retry budget.
	ErrOverloaded = broker.ErrOverloaded
	// IsOverloaded recognises overload rejections, including after a
	// wire round trip through Message.Error.
	IsOverloaded = broker.IsOverloaded
	// IsExpired recognises work refused because its propagated
	// deadline had already passed.
	IsExpired = broker.IsExpired
	// ParseSlowConsumerPolicy resolves a -slow-consumer-policy flag
	// value ("block", "drop-oldest", "sever").
	ParseSlowConsumerPolicy = broker.ParseSlowConsumerPolicy
	// NewBreaker builds a circuit breaker (0 threshold/cooldown =
	// defaults).
	NewBreaker = broker.NewBreaker

	// WithSlowConsumerPolicy selects the server's slow-consumer
	// policy.
	WithSlowConsumerPolicy = broker.WithSlowConsumerPolicy
	// WithMaxPendingPerConn bounds the notification bytes queued per
	// connection before the slow-consumer policy applies.
	WithMaxPendingPerConn = broker.WithMaxPendingPerConn
	// WithQuarantine sets how long the sever policy rejects
	// reconnects from a severed subscriber's host.
	WithQuarantine = broker.WithQuarantine
	// WithAdmissionControl enables broker-wide admission control.
	WithAdmissionControl = broker.WithAdmissionControl
	// WithNotifyGap observes wire-visible notification gaps left by
	// the drop-oldest policy.
	WithNotifyGap = broker.WithNotifyGap
)

// Proxy options.
var (
	// WithProxyFetcher routes the proxy's fetch path through an
	// alternate fetcher (e.g. a resilient TCP client).
	WithProxyFetcher = broker.WithProxyFetcher
)

// Durability (write-ahead journal, snapshots, crash recovery).
type (
	// BrokerOption configures OpenBroker (data directory, fsync
	// policy, snapshot cadence, telemetry).
	BrokerOption = broker.BrokerOption
	// FsyncPolicy selects when journal appends reach stable storage.
	FsyncPolicy = journal.FsyncPolicy
)

// Fsync policies.
const (
	// FsyncAlways group-commits every record to stable storage before
	// acknowledging it (zero loss on crash).
	FsyncAlways = journal.FsyncAlways
	// FsyncInterval syncs in the background on a timer (bounded loss).
	FsyncInterval = journal.FsyncInterval
	// FsyncNone leaves flushing to the OS (fastest; loss on power
	// failure, none on process crash).
	FsyncNone = journal.FsyncNone
)

// Broker durability options.
var (
	// WithDataDir makes the broker durable: subscriptions are
	// journaled under the directory and recovered, with their original
	// IDs, on the next OpenBroker.
	WithDataDir = broker.WithDataDir
	// WithFsyncPolicy selects the broker journal's fsync policy.
	WithFsyncPolicy = broker.WithFsyncPolicy
	// WithSnapshotInterval sets how often durable state is snapshotted
	// and the journal truncated.
	WithSnapshotInterval = broker.WithSnapshotInterval
	// WithBrokerTelemetry attaches metrics/tracing before recovery, so
	// journal counters and the recovery histogram cover the restart.
	WithBrokerTelemetry = broker.WithBrokerTelemetry
	// ParseFsyncPolicy parses "always", "interval" or "none".
	ParseFsyncPolicy = journal.ParseFsyncPolicy
)

// OpenBroker returns a broker, durable when WithDataDir is set:
// existing journal state is recovered (tolerating a torn final
// record) before the broker accepts traffic. Close it to flush a
// final checkpoint.
func OpenBroker(opts ...BrokerOption) (*Broker, error) { return broker.Open(opts...) }

// NewBroker returns an empty in-process broker.
func NewBroker() *Broker { return broker.New() }

// NewBrokerServer serves a broker over TCP on addr, configured by
// functional options.
func NewBrokerServer(b *Broker, addr string, opts ...BrokerServerOption) (*BrokerServer, error) {
	return broker.NewServer(b, addr, opts...)
}

// DialBroker connects to a broker server, configured by functional
// options (WithNotify, WithReconnect, ...).
func DialBroker(ctx context.Context, addr string, opts ...BrokerClientOption) (*BrokerClient, error) {
	return broker.Dial(ctx, addr, opts...)
}

// Wire codecs. Connections start on line-JSON; clients that prefer
// the binary codec negotiate it during the hello handshake, and
// either side falls back to JSON when the peer does not speak it.
var (
	// BinaryCodec returns the length-prefixed binary wire codec (the
	// default first preference of clients and servers).
	BinaryCodec = broker.BinaryCodec
	// JSONCodec returns the line-delimited JSON wire codec — the
	// pre-negotiation format every connection starts in.
	JSONCodec = broker.JSONCodec
	// CodecByName resolves a built-in codec by its wire name
	// ("binary", "json").
	CodecByName = broker.CodecByName
	// WithCodec restricts the codecs a server will negotiate up to.
	WithCodec = broker.WithCodec
	// WithPreferredCodec sets the client's codec preference order.
	WithPreferredCodec = broker.WithPreferredCodec
	// WithMaxFrame caps the server's accepted frame size.
	WithMaxFrame = broker.WithMaxFrame
	// WithClientMaxFrame caps the client's accepted frame size.
	WithClientMaxFrame = broker.WithClientMaxFrame
)

// DefaultMaxFrame is the frame-size limit both sides apply when no
// explicit limit is configured.
const DefaultMaxFrame = broker.DefaultMaxFrame

// NewProxy attaches a caching proxy to a broker; WithProxyFetcher
// routes its fetches through an alternate path.
func NewProxy(id int, b *Broker, s Strategy, cost float64, opts ...ProxyOption) (*Proxy, error) {
	return broker.NewProxy(id, b, s, cost, opts...)
}

// NewRemoteLink bridges a local broker into a remote broker over TCP:
// it subscribes remotely for the given interests and republishes
// matching pages locally. Built on the
// resilient client, the link recovers automatically when the remote
// peer restarts.
var NewRemoteLink = broker.NewRemoteLink

// NotifierFunc adapts a function into a broker notifier.
type NotifierFunc = broker.NotifierFunc

// Experiments (the paper's evaluation).
type (
	// ExperimentHarness caches workloads and swept β values across
	// experiment drivers.
	ExperimentHarness = experiments.Harness
	// ExperimentConfig parameterises the harness.
	ExperimentConfig = experiments.Config
)

// NewExperimentHarness returns a harness.
func NewExperimentHarness(cfg ExperimentConfig) *ExperimentHarness { return experiments.New(cfg) }

// DefaultExperimentConfig is the paper's full-scale setup.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }
