package sim

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pubsubcd/internal/core"
	"pubsubcd/internal/telemetry"
	"pubsubcd/internal/workload"
)

// scale50 is the NEWS workload at scale 50: 100 proxies, 3 900
// requests over the 168 trace hours.
func scale50(t *testing.T) *workload.Workload {
	t.Helper()
	w, err := workload.Generate(workload.ScaledConfig(workload.TraceNEWS, 50))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// outcomeCounters returns the sim.* series for the given outcome
// totals and hourly rows.
func outcomeCounters(requests, hits, cold, warm int64, rows map[string][]int64) map[string]int64 {
	m := map[string]int64{
		"sim.requests":    requests,
		"sim.hits":        hits,
		"sim.cold_misses": cold,
		"sim.warm_misses": warm,
	}
	for name, row := range rows {
		m[name] = 0
		for _, v := range row {
			m[name] += v
		}
	}
	return m
}

// resultCounters returns the sim.* series a run with outcome res adds.
func resultCounters(res *Result) map[string]int64 {
	return outcomeCounters(res.Requests, res.Hits, res.ColdMisses, res.WarmMisses, map[string][]int64{
		"sim.pushed_pages_ap":  res.PushedPagesAP,
		"sim.pushed_pages_pwn": res.PushedPagesPWN,
		"sim.fetched_pages":    res.FetchedPages,
		"sim.pushed_bytes_ap":  res.PushedBytesAP,
		"sim.pushed_bytes_pwn": res.PushedBytesPWN,
		"sim.fetched_bytes":    res.FetchedBytes,
	})
}

// tallyCounters returns the sim.* series for what tl has counted.
func tallyCounters(tl *shardTally) map[string]int64 {
	return outcomeCounters(tl.requests, tl.hits, tl.coldMisses, tl.warmMisses, map[string][]int64{
		"sim.pushed_pages_ap":  tl.pushedPagesAP,
		"sim.pushed_pages_pwn": tl.pushedPagesPWN,
		"sim.fetched_pages":    tl.fetchedPages,
		"sim.pushed_bytes_ap":  tl.pushedBytesAP,
		"sim.pushed_bytes_pwn": tl.pushedBytesPWN,
		"sim.fetched_bytes":    tl.fetchedBytes,
	})
}

// withOpStats adds to m the sim.strategy.* series of strategy for ops.
func withOpStats(m map[string]int64, strategy string, ops core.OpStats) map[string]int64 {
	for name, v := range map[string]int64{
		"push_offers":     ops.PushOffers,
		"push_stores":     ops.PushStores,
		"requests":        ops.Requests,
		"hits":            ops.Hits,
		"stale_refreshes": ops.StaleRefreshes,
		"access_admits":   ops.AccessAdmits,
		"access_rejects":  ops.AccessRejects,
		"evictions":       ops.Evictions,
		"evicted_bytes":   ops.EvictedBytes,
	} {
		m[telemetry.RenderSeries("sim.strategy."+name, []string{"strategy"}, []string{strategy})] = v
	}
	return m
}

// opStats returns the shard's strategy's OpStats.
func opStats(sh *Shard) core.OpStats { return sh.strategy.(core.StatsProvider).OpStats() }

// opStatsSum sums the OpStats of the shards' strategies.
func opStatsSum(shards []*Shard) core.OpStats {
	var sum core.OpStats
	s := reflect.ValueOf(&sum).Elem()
	for _, sh := range shards {
		st := reflect.ValueOf(opStats(sh))
		for i := 0; i < s.NumField(); i++ {
			s.Field(i).SetInt(s.Field(i).Int() + st.Field(i).Int())
		}
	}
	return sum
}

// simCounters returns the registry's sim.* counters, failing on any
// sim.* histogram: the run publishes counts only.
func simCounters(t *testing.T, reg *telemetry.Registry) map[string]int64 {
	t.Helper()
	snap := reg.Snapshot()
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "sim.") {
			t.Errorf("unexpected histogram %s", name)
		}
	}
	got := map[string]int64{}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "sim.") {
			got[name] = v
		}
	}
	return got
}

// checkCounters requires the registry's sim.* counters, less base, to
// be exactly want: every series present and equal, none extra.
func checkCounters(t *testing.T, what string, reg *telemetry.Registry, base, want map[string]int64) {
	t.Helper()
	got := simCounters(t, reg)
	for name, v := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: %s not registered", what, name)
		} else if g-base[name] != v {
			t.Errorf("%s: %s = %d, want %d", what, name, g-base[name], v)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected series %s", what, name)
		}
	}
}

// TestRunTelemetryMatchesResult holds the registry to the run it
// watched: after Run, for every catalog strategy at Parallelism 1 and
// 4, each sim.* counter equals the Result and each sim.strategy.*
// counter equals the sum of the proxies' OpStats. The registry must
// not perturb the Result either.
func TestRunTelemetryMatchesResult(t *testing.T) {
	w := scale50(t)
	for _, f := range core.Catalog() {
		t.Run(f.Name, func(t *testing.T) {
			// A replay off the registry yields the plain Result and
			// the proxies' OpStats; replays are deterministic.
			plain, err := NewReplay(w, f, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			runShards(context.Background(), plain.Shards, 1)
			want := plain.Result()
			ops := opStatsSum(plain.Shards)
			for _, parallelism := range []int{1, 4} {
				reg := telemetry.NewRegistry()
				opts := DefaultOptions()
				opts.Telemetry = reg
				opts.Parallelism = parallelism
				res, err := Run(w, f, opts)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("parallelism %d", parallelism)
				if !reflect.DeepEqual(res, want) {
					t.Errorf("%s: the registry perturbed the run: H=%.6f vs %.6f", what, res.HitRatio(), want.HitRatio())
				}
				checkCounters(t, what, reg, nil, withOpStats(resultCounters(res), f.Name, ops))
			}
		})
	}
}

// TestStrategyCountersMirrorOpStats runs every catalog strategy, one
// after another, into one shared registry: after each replay the
// sim.strategy.* series labelled with its name equal the sum of its
// proxies' OpStats, and no series of another strategy moved.
func TestStrategyCountersMirrorOpStats(t *testing.T) {
	w := scale50(t)
	reg := telemetry.NewRegistry()
	for _, f := range core.Catalog() {
		t.Run(f.Name, func(t *testing.T) {
			base := simCounters(t, reg)
			opts := DefaultOptions()
			opts.Telemetry = reg
			r, err := NewReplay(w, f, opts)
			if err != nil {
				t.Fatal(err)
			}
			runShards(context.Background(), r.Shards, 4)
			r.Result()
			want := withOpStats(map[string]int64{}, f.Name, opStatsSum(r.Shards))
			label := telemetry.RenderSeries("", []string{"strategy"}, []string{f.Name})
			for name, v := range simCounters(t, reg) {
				switch {
				case !strings.HasPrefix(name, "sim.strategy."):
				case strings.HasSuffix(name, label):
					if _, ok := want[name]; !ok {
						t.Errorf("unexpected series %s", name)
					} else if d := v - base[name]; d != want[name] {
						t.Errorf("%s = %d, want %d (OpStats)", name, d, want[name])
					}
					delete(want, name)
				case v != base[name]:
					t.Errorf("%s moved by %d during the %s replay", name, v-base[name], f.Name)
				}
			}
			for name := range want {
				t.Errorf("%s not registered", name)
			}
		})
	}
}

// TestShardDriveTelemetryMatchesResult drives every proxy's shard
// through Events, Offer and Request on its own goroutine, as the live
// soak does, and requires the registry to be exact after Result.
func TestShardDriveTelemetryMatchesResult(t *testing.T) {
	w := scale50(t)
	for _, f := range core.Catalog() {
		t.Run(f.Name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			opts := DefaultOptions()
			opts.Telemetry = reg
			r, err := NewReplay(w, f, opts)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, sh := range r.Shards {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, ev := range sh.Events() {
						if ev.Request {
							sh.Request(ev)
						} else {
							sh.Offer(ev)
						}
					}
				}()
			}
			wg.Wait()
			res := r.Result()
			checkCounters(t, "after Result", reg, nil, withOpStats(resultCounters(res), f.Name, opStatsSum(r.Shards)))
		})
	}
}

// TestShardPublishesAtHourBoundary pins when a shard publishes: once it
// has taken the first event of a new hour, everything it counted in
// the hours before, and nothing after, is in the registry. Every tenth
// shard is driven, one after another, so the registry at a shard's
// start is the base its own publications add to.
func TestShardPublishesAtHourBoundary(t *testing.T) {
	w := scale50(t)
	for _, f := range core.Catalog() {
		t.Run(f.Name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			opts := DefaultOptions()
			opts.Telemetry = reg
			r, err := NewReplay(w, f, opts)
			if err != nil {
				t.Fatal(err)
			}
			boundaries := 0
			for s := 0; s < len(r.Shards); s += 10 {
				sh := r.Shards[s]
				base := simCounters(t, reg)
				hour := -1
				for _, ev := range sh.Events() {
					var want map[string]int64
					if ev.Hour > hour && hour >= 0 {
						want = withOpStats(tallyCounters(sh.tally), f.Name, opStats(sh))
					}
					if ev.Request {
						sh.Request(ev)
					} else {
						sh.Offer(ev)
					}
					if want != nil {
						boundaries++
						checkCounters(t, fmt.Sprintf("server %d hour %d", sh.server, ev.Hour), reg, base, want)
						if t.Failed() {
							return
						}
					}
					hour = ev.Hour
				}
			}
			if boundaries == 0 {
				t.Fatal("no shard crossed an hour boundary")
			}
		})
	}
}
