// Package sim is the discrete-event simulator of the paper's Fig. 2: a
// single publisher, a set of proxy servers each running a content
// distribution strategy, a publishing stream pushed through the matching
// engine, and per-proxy request streams served from the local caches.
//
// A single run measures the global hit ratio H (eq. 8), hourly hit ratios
// and the publisher→proxy traffic in pages and bytes under both pushing
// schemes of §5.6 (Always-Pushing and Pushing-When-Necessary) — the
// placement outcome is identical under both schemes, only the accounting
// differs, so one run yields both curves.
package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"pubsubcd/internal/core"
	"pubsubcd/internal/telemetry"
	"pubsubcd/internal/workload"
)

// Options configures a simulation run.
type Options struct {
	// CapacityFraction sizes each proxy cache as this fraction of the
	// unique bytes the proxy requests over the trace (§5.1; paper uses
	// 0.01, 0.05, 0.10).
	CapacityFraction float64
	// Beta is the GD* balance parameter for strategies that use it.
	Beta float64
	// TopologySeed seeds the Waxman topology that yields fetch costs.
	TopologySeed int64
	// FetchCosts optionally supplies precomputed per-proxy fetch costs
	// (len == servers); when nil they are generated from TopologySeed.
	FetchCosts []float64
	// Telemetry, when non-nil, receives live counters from the run
	// (sim.* outcome tallies and a shared sim.strategy.* view of the
	// proxies' placement decisions and sampled latencies). Nil keeps
	// the run uninstrumented.
	Telemetry *telemetry.Registry
	// Parallelism bounds how many per-proxy shards replay concurrently.
	// 0 selects GOMAXPROCS; 1 forces a sequential replay. The Result is
	// bit-identical for every value: shards share no mutable state and
	// are merged in fixed server order.
	Parallelism int
	// Spans, when non-nil, records the run as a span tree: a sim.run
	// root with one sim.shard child per proxy (server and event-count
	// attributes), so per-shard wall time is visible on /trace/{id}.
	// Nil keeps the run untraced at zero cost.
	Spans *telemetry.SpanCollector
}

// DefaultOptions returns the paper's most common setting: 5 % capacity,
// β = 2.
func DefaultOptions() Options {
	return Options{CapacityFraction: 0.05, Beta: 2, TopologySeed: 7}
}

// Result summarises one simulation run.
type Result struct {
	Strategy         string  `json:"strategy"`
	Trace            string  `json:"trace"`
	CapacityFraction float64 `json:"capacityFraction"`
	Beta             float64 `json:"beta"`
	SQ               float64 `json:"sq"`

	Hits     int64 `json:"hits"`
	Requests int64 `json:"requests"`

	// Hourly series, one entry per simulation hour.
	HourlyHits     []int64 `json:"hourlyHits"`
	HourlyRequests []int64 `json:"hourlyRequests"`
	// PushedPagesAP counts page transfers for pushing under
	// Always-Pushing; PushedPagesPWN under Pushing-When-Necessary.
	PushedPagesAP  []int64 `json:"pushedPagesAP"`
	PushedPagesPWN []int64 `json:"pushedPagesPWN"`
	// FetchedPages counts fetch-on-miss transfers (scheme-independent).
	FetchedPages []int64 `json:"fetchedPages"`
	// Byte counterparts of the above.
	PushedBytesAP  []int64 `json:"pushedBytesAP"`
	PushedBytesPWN []int64 `json:"pushedBytesPWN"`
	FetchedBytes   []int64 `json:"fetchedBytes"`

	PerServerHits     []int64 `json:"perServerHits"`
	PerServerRequests []int64 `json:"perServerRequests"`
	// PerServerHourlyHits and PerServerHourlyRequests are the full
	// [server][hour] matrices behind the marginals above, so a proxy's
	// cache warm-up can be read off directly.
	PerServerHourlyHits     [][]int64 `json:"perServerHourlyHits"`
	PerServerHourlyRequests [][]int64 `json:"perServerHourlyRequests"`

	// ColdMisses counts first requests of a (page, server) pair —
	// avoidable only by pushing. WarmMisses counts repeat-request misses
	// (the copy was evicted or stale).
	ColdMisses int64 `json:"coldMisses"`
	WarmMisses int64 `json:"warmMisses"`
	// ClassHits/ClassRequests break down by popularity class (0..3).
	ClassHits     [4]int64 `json:"classHits"`
	ClassRequests [4]int64 `json:"classRequests"`
}

// HitRatio returns the global hit ratio H of eq. 8 (0 when no requests).
func (r *Result) HitRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Requests)
}

// HourlyHitRatio returns the hit ratio for each simulation hour; hours
// with no requests yield NaN so plots can skip them.
func (r *Result) HourlyHitRatio() []float64 {
	out := make([]float64, len(r.HourlyHits))
	for i := range out {
		if r.HourlyRequests[i] == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = float64(r.HourlyHits[i]) / float64(r.HourlyRequests[i])
	}
	return out
}

// TotalTraffic returns the total pages transferred from the publisher
// under the given pushing scheme (pushes + fetches on miss).
func (r *Result) TotalTraffic(scheme PushScheme) int64 {
	var total int64
	pushed := r.PushedPagesAP
	if scheme == PushWhenNecessary {
		pushed = r.PushedPagesPWN
	}
	for i := range pushed {
		total += pushed[i] + r.FetchedPages[i]
	}
	return total
}

// TotalTrafficBytes is TotalTraffic measured in bytes.
func (r *Result) TotalTrafficBytes(scheme PushScheme) int64 {
	var total int64
	pushed := r.PushedBytesAP
	if scheme == PushWhenNecessary {
		pushed = r.PushedBytesPWN
	}
	for i := range pushed {
		total += pushed[i] + r.FetchedBytes[i]
	}
	return total
}

// HourlyTraffic returns the per-hour page traffic under the scheme.
func (r *Result) HourlyTraffic(scheme PushScheme) []int64 {
	pushed := r.PushedPagesAP
	if scheme == PushWhenNecessary {
		pushed = r.PushedPagesPWN
	}
	out := make([]int64, len(pushed))
	for i := range out {
		out[i] = pushed[i] + r.FetchedPages[i]
	}
	return out
}

// PushScheme selects how the push-time module transfers content (§5.6).
type PushScheme int

const (
	// AlwaysPush transfers every matched page; the proxy may then
	// decline to store it (wasting the transfer).
	AlwaysPush PushScheme = iota + 1
	// PushWhenNecessary exchanges metadata first and transfers the page
	// only when the proxy will store it.
	PushWhenNecessary
)

// String implements fmt.Stringer.
func (s PushScheme) String() string {
	switch s {
	case AlwaysPush:
		return "Always-Pushing"
	case PushWhenNecessary:
		return "Pushing-When-Necessary"
	default:
		return fmt.Sprintf("PushScheme(%d)", int(s))
	}
}

// Run simulates the workload under the named strategy.
//
// The run is sharded by proxy (see NewReplay): each server's private
// event stream replays through its own strategy instance on a bounded
// worker pool of opts.Parallelism goroutines, and the per-shard tallies
// are merged into the Result in ascending server order. Because shards
// share no mutable state — publication versions are pre-resolved into
// the event view — the Result is bit-identical for every parallelism
// level, including the sequential replay at 1.
func Run(w *workload.Workload, factory core.Factory, opts Options) (*Result, error) {
	if opts.Parallelism < 0 {
		return nil, fmt.Errorf("sim: parallelism must be non-negative, got %d", opts.Parallelism)
	}
	r, err := NewReplay(w, factory, opts)
	if err != nil {
		return nil, err
	}
	parallelism := opts.Parallelism
	if parallelism == 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	ctx := telemetry.WithSpanCollector(context.Background(), opts.Spans)
	ctx, sp := telemetry.StartSpan(ctx, "sim.run")
	if sp != nil {
		sp.SetAttr("strategy", factory.Name)
		sp.SetAttr("trace", string(w.Config.Trace()))
		sp.SetAttrInt("servers", int64(len(r.Shards)))
		sp.SetAttrInt("parallelism", int64(parallelism))
	}
	runShards(ctx, r.Shards, parallelism)
	sp.End()
	return r.Result(), nil
}
