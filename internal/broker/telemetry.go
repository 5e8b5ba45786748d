package broker

import (
	"time"

	"pubsubcd/internal/telemetry"
)

// brokerTelemetry bundles the broker's pre-resolved metric handles. A
// nil *brokerTelemetry means telemetry is off.
type brokerTelemetry struct {
	publishes     *telemetry.Counter
	publishErrors *telemetry.Counter
	notifications *telemetry.Counter
	pushes        *telemetry.Counter
	fetches       *telemetry.Counter
	fetchMisses   *telemetry.Counter
	subscribes    *telemetry.Counter
	unsubscribes  *telemetry.Counter
	liveSubs      *telemetry.Gauge

	publishNanos *telemetry.Histogram
	matchNanos   *telemetry.Histogram
	fetchNanos   *telemetry.Histogram
	matchFanout  *telemetry.Histogram
	pushFanout   *telemetry.Histogram

	// stageMatch is the first delivery-latency stage: publish ingress
	// through the end of matching. The transport owns the later stages
	// (fanout-enqueue, enqueue→flush) and the client observes the total.
	stageMatch *telemetry.Histogram

	// publishesByTopic breaks publishes down per topic under a bounded
	// label budget (hot-topic ranking for the fleet dashboard; combos
	// past the budget collapse into the vec's overflow series).
	publishesByTopic *telemetry.CounterVec

	// SLO counters: a publish "hits" the SLO when the whole
	// publish→match→notify→placement fan-out completes within the
	// budget (see Broker.SetPublishSLO).
	sloHits   *telemetry.Counter
	sloMisses *telemetry.Counter
}

// EnableTelemetry wires the broker to a metrics registry. Call before
// serving traffic; counters cover publishes, notifications, pushes,
// fetches and subscription lifecycle, and histograms cover
// match/publish/fetch latency and fan-out. A page's
// publish→match→push→fetch causality is recorded by spans; see
// PublishContext.
func (b *Broker) EnableTelemetry(reg *telemetry.Registry) {
	lat := telemetry.LatencyBuckets()
	fan := telemetry.CountBuckets()
	b.tel.Store(&brokerTelemetry{
		publishes:     reg.Counter("broker.publishes"),
		publishErrors: reg.Counter("broker.publish_errors"),
		notifications: reg.Counter("broker.notifications"),
		pushes:        reg.Counter("broker.pushes"),
		fetches:       reg.Counter("broker.fetches"),
		fetchMisses:   reg.Counter("broker.fetch_misses"),
		subscribes:    reg.Counter("broker.subscribes"),
		unsubscribes:  reg.Counter("broker.unsubscribes"),
		liveSubs:      reg.Gauge("broker.live_subscriptions"),
		publishNanos:  reg.Histogram("broker.publish_ns", lat),
		matchNanos:    reg.Histogram("broker.match_ns", lat),
		fetchNanos:    reg.Histogram("broker.fetch_ns", lat),
		matchFanout:   reg.Histogram("broker.match_fanout", fan),
		pushFanout:    reg.Histogram("broker.push_fanout", fan),
		stageMatch:    reg.Histogram("broker.stage_ns.ingress_to_match", lat),
		sloHits:       reg.Counter("broker.slo.publish_to_placement.hit"),
		sloMisses:     reg.Counter("broker.slo.publish_to_placement.miss"),

		publishesByTopic: reg.CounterVec("broker.publishes_by_topic", "topic"),
	})
}

// telemetryHandles returns the current handles, or nil when telemetry
// is off.
func (b *Broker) telemetryHandles() *brokerTelemetry {
	return b.tel.Load()
}

// sinceNanos is time.Since in the histogram's unit.
func sinceNanos(t0 time.Time) int64 { return time.Since(t0).Nanoseconds() }
