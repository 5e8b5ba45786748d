package core

import (
	"time"

	"pubsubcd/internal/telemetry"
)

// sampleMask selects which operations do telemetry work: ops whose
// policy-local sequence number has the masked bits zero (1 in 16)
// measure wall-clock latency and flush the accumulated decision-counter
// deltas to the registry. Unsampled ops pay only one branch, keeping
// the instrumented hot path within a few percent of the bare one (see
// BenchmarkInstrumentationOverhead). The registry therefore lags the
// true counts by at most sampleMask ops per strategy instance; OpStats()
// forces an exact flush, so counters are precise whenever read through
// the strategy.
const sampleMask = 0xf

// StrategyMetrics is the telemetry sink of the strategy hot path. One
// instance can be shared by many proxy-local strategy instances (the
// counters then aggregate across proxies). A nil *StrategyMetrics is a
// valid "telemetry off" sink: strategies check for nil before touching
// it, so the uninstrumented path costs one predictable branch.
type StrategyMetrics struct {
	pushOffers     *telemetry.Counter
	pushStores     *telemetry.Counter
	requests       *telemetry.Counter
	hits           *telemetry.Counter
	staleRefreshes *telemetry.Counter
	accessAdmits   *telemetry.Counter
	accessRejects  *telemetry.Counter
	evictions      *telemetry.Counter
	evictedBytes   *telemetry.Counter

	pushNanos    *telemetry.Histogram
	requestNanos *telemetry.Histogram
	evalNanos    *telemetry.Histogram
}

// NewStrategyMetrics resolves the strategy metric handles as labeled
// series — prefix+".requests"{strategy="GD*"} and so on — so runs of
// different strategies merge into distinct series fleet-wide.
func NewStrategyMetrics(r *telemetry.Registry, prefix, strategy string) *StrategyMetrics {
	lat := telemetry.LatencyBuckets()
	cv := func(name string) *telemetry.Counter {
		return r.CounterVec(prefix+"."+name, "strategy").With(strategy)
	}
	hv := func(name string) *telemetry.Histogram {
		return r.HistogramVec(prefix+"."+name, lat, "strategy").With(strategy)
	}
	return &StrategyMetrics{
		pushOffers:     cv("push_offers"),
		pushStores:     cv("push_stores"),
		requests:       cv("requests"),
		hits:           cv("hits"),
		staleRefreshes: cv("stale_refreshes"),
		accessAdmits:   cv("access_admits"),
		accessRejects:  cv("access_rejects"),
		evictions:      cv("evictions"),
		evictedBytes:   cv("evicted_bytes"),
		pushNanos:      hv("push_ns"),
		requestNanos:   hv("request_ns"),
		evalNanos:      hv("eval_ns"),
	}
}

// record mirrors the OpStats counters accumulated since the last call
// into the telemetry registry: flushed is the previously mirrored state
// and is advanced to cur. Counters stay exact; only fields that changed
// pay an atomic add.
func (m *StrategyMetrics) record(flushed *OpStats, cur *OpStats) {
	if d := cur.PushOffers - flushed.PushOffers; d != 0 {
		m.pushOffers.Add(d)
	}
	if d := cur.PushStores - flushed.PushStores; d != 0 {
		m.pushStores.Add(d)
	}
	if d := cur.Requests - flushed.Requests; d != 0 {
		m.requests.Add(d)
	}
	if d := cur.Hits - flushed.Hits; d != 0 {
		m.hits.Add(d)
	}
	if d := cur.StaleRefreshes - flushed.StaleRefreshes; d != 0 {
		m.staleRefreshes.Add(d)
	}
	if d := cur.AccessAdmits - flushed.AccessAdmits; d != 0 {
		m.accessAdmits.Add(d)
	}
	if d := cur.AccessRejects - flushed.AccessRejects; d != 0 {
		m.accessRejects.Add(d)
	}
	if d := cur.Evictions - flushed.Evictions; d != 0 {
		m.evictions.Add(d)
	}
	if d := cur.EvictedBytes - flushed.EvictedBytes; d != 0 {
		m.evictedBytes.Add(d)
	}
	*flushed = *cur
}

// sampleOp reports whether the op with the given pre-increment sequence
// number does telemetry work (latency measurement + counter flush).
func sampleOp(seq uint64) bool { return seq&sampleMask == 0 }

// pushDone finishes a sampled Push: flushes the counter deltas
// accumulated since the last sampled op and observes the op latency.
// Callers must have checked that m is non-nil and the op is sampled.
func (m *StrategyMetrics) pushDone(t0 time.Time, flushed, cur *OpStats) {
	m.record(flushed, cur)
	m.pushNanos.Observe(time.Since(t0).Nanoseconds())
}

// requestDone finishes a sampled Request; see pushDone.
func (m *StrategyMetrics) requestDone(t0 time.Time, flushed, cur *OpStats) {
	m.record(flushed, cur)
	m.requestNanos.Observe(time.Since(t0).Nanoseconds())
}

// evalDone observes one sampled value-function evaluation.
func (m *StrategyMetrics) evalDone(t0 time.Time) {
	m.evalNanos.Observe(time.Since(t0).Nanoseconds())
}
