package main

import (
	"reflect"
	"runtime"
	"strings"
	"time"

	"pubsubcd/internal/core"
	"pubsubcd/internal/sim"
	"pubsubcd/internal/topology"
	"pubsubcd/internal/workload"
)

// simStrategies are the schemes sim_paper replays, one per row of the
// paper's Table 1: access-only (GD*), push-only (SUB), both methods in
// one cache (SG2), dual methods (DM) and dual caches (DC-LAP).
var simStrategies = []string{"GD*", "SUB", "SG2", "DM", "DC-LAP"}

// metricName maps a strategy to the spelling used in metric names.
func metricName(strategy string) string {
	if strategy == "GD*" {
		return "gdstar"
	}
	return strings.ToLower(strategy)
}

// simInput is the paper-scale system sim_paper replays: the NEWS trace,
// its per-proxy event view and the topology's fetch costs.
type simInput struct {
	w     *workload.Workload
	costs []float64
	// events is the number of trace events one sim.Run replays.
	events int64
	// generate and events are the build times of the two workload
	// stages, for the traced run.
	generateDur, eventsDur time.Duration
}

// traceSeed fixes the generated NEWS trace. The trace's heavy Zipf head
// makes the work per op differ by up to a half between trace seeds (at
// live_news scale, 37 to 83 notifications per op over ten seeds), which
// would swamp any change a run is meant to resolve; --seed varies the
// network and naming around one trace instead (NOTES.md, "Seeds").
const traceSeed = 1

func buildSimInput(seed int64, scale int) (*simInput, error) {
	cfg := workload.ScaledConfig(workload.TraceNEWS, scale)
	cfg.Seed = traceSeed
	t0 := time.Now()
	w, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	view := w.Events()
	t2 := time.Now()
	costs, err := topology.FetchCosts(cfg.Servers, seed)
	if err != nil {
		return nil, err
	}
	in := &simInput{w: w, costs: costs, generateDur: t1.Sub(t0), eventsDur: t2.Sub(t1)}
	for _, s := range view.Streams {
		in.events += int64(len(s))
	}
	return in, nil
}

func (in *simInput) options(parallelism int) sim.Options {
	opts := sim.DefaultOptions()
	opts.FetchCosts = in.costs
	opts.Parallelism = parallelism
	return opts
}

func lookupStrategies() ([]core.Factory, error) {
	fs := make([]core.Factory, len(simStrategies))
	for i, name := range simStrategies {
		f, err := core.Lookup(name)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return fs, nil
}

func runSimPaper(cfg config) (*outcome, error) {
	factories, err := lookupStrategies()
	if err != nil {
		return nil, err
	}
	in, setup, err := repeatSetup(func() (*simInput, error) { return buildSimInput(cfg.seed, 1) }, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	first := make([]*sim.Result, len(factories))
	deadline := time.Duration(cfg.seconds) * time.Second

	settle()
	var sl slices
	sl.mark(0)
	t0 := time.Now()
	rounds := 0
	for time.Since(t0) < deadline {
		for i, f := range factories {
			res, err := sim.Run(in.w, f, in.options(0))
			out.attempted++
			if err != nil {
				out.failed++
				out.fail("%s: %v", f.Name, err)
				continue
			}
			if first[i] == nil {
				first[i] = res
			} else if !reflect.DeepEqual(first[i], res) {
				out.fail("%s: result differs between repeats", f.Name)
			}
		}
		rounds++
		sl.mark(in.events * int64(len(factories)) * int64(rounds))
	}
	opsPerS, cpuPerOp := sl.medians()
	heap := liveHeapMiB()
	runtime.KeepAlive(in)

	var hits, requests, originBytes int64
	for i, res := range first {
		if res == nil {
			continue
		}
		checkSimResult(out, simStrategies[i], res)
		hits += res.Hits
		requests += res.Requests
		originBytes += res.TotalTrafficBytes(sim.PushWhenNecessary)
	}
	checkSimParallelism(out, cfg.seed, factories)

	out.metrics = map[string]metric{
		"ops_per_s":     {opsPerS, "1/s"},
		"cpu_us_per_op": {cpuPerOp, "us"},
		"heap_mb":       {heap, "MiB"},
	}
	out.setupMetrics(setup)
	if requests > 0 {
		out.rows = append(out.rows, row{"hit_ratio", "1", float64(hits) / float64(requests), requests})
	}
	out.rows = append(out.rows,
		row{"origin_mb", "MiB", float64(originBytes) / (1 << 20), int64(len(factories))},
		row{"catalog_passes", "count", float64(rounds), int64(rounds)})
	return out, nil
}

// checkSimResult verifies a result's internal consistency: hourly
// series sum to the totals, hits never exceed requests, and
// Pushing-When-Necessary never moves more than Always-Pushing.
func checkSimResult(out *outcome, name string, r *sim.Result) {
	sum := func(xs []int64) int64 {
		var t int64
		for _, x := range xs {
			t += x
		}
		return t
	}
	if sum(r.HourlyHits) != r.Hits || sum(r.HourlyRequests) != r.Requests {
		out.fail("%s: hourly series do not sum to the totals", name)
	}
	if sum(r.PerServerHits) != r.Hits || sum(r.PerServerRequests) != r.Requests {
		out.fail("%s: per-server series do not sum to the totals", name)
	}
	if r.Hits > r.Requests {
		out.fail("%s: %d hits > %d requests", name, r.Hits, r.Requests)
	}
	if r.TotalTrafficBytes(sim.PushWhenNecessary) > r.TotalTrafficBytes(sim.AlwaysPush) {
		out.fail("%s: PWN traffic exceeds AP traffic", name)
	}
	if r.Requests == 0 {
		out.fail("%s: no requests replayed", name)
	}
}

// checkSimParallelism checks, at a small scale and outside the timed
// part, that the default parallel replay deep-equals the sequential one.
func checkSimParallelism(out *outcome, seed int64, factories []core.Factory) {
	small, err := buildSimInput(seed, 50)
	if err != nil {
		out.fail("small-scale build: %v", err)
		return
	}
	for _, f := range factories {
		par, err1 := sim.Run(small.w, f, small.options(0))
		seq, err2 := sim.Run(small.w, f, small.options(1))
		if err1 != nil || err2 != nil {
			out.fail("%s small-scale run: %v %v", f.Name, err1, err2)
			continue
		}
		if !reflect.DeepEqual(par, seq) {
			out.fail("%s: parallel result differs from Parallelism=1", f.Name)
		}
	}
}

// settle collects setup garbage at the setup → timed boundary so it is
// not collected inside the timed phase.
func settle() { runtime.GC() }
