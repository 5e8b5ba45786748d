package sim

import (
	"math"
	"testing"

	"pubsubcd/internal/core"
	"pubsubcd/internal/workload"
)

func testWorkload(t *testing.T, trace workload.TraceName, sq float64) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultConfig(trace)
	cfg.DistinctPages = 400
	cfg.ModifiedPages = 160
	cfg.TotalPublished = 2000
	cfg.TotalRequests = 13000
	cfg.Servers = 20
	cfg.SQ = sq
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runStrategy(t *testing.T, w *workload.Workload, name string, opts Options) *Result {
	t.Helper()
	f, err := core.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(w, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	w := testWorkload(t, workload.TraceNEWS, 1)
	f, err := core.Lookup("GD*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(nil, f, DefaultOptions()); err == nil {
		t.Error("nil workload should error")
	}
	if _, err := Run(w, f, Options{CapacityFraction: 0, Beta: 2}); err == nil {
		t.Error("zero capacity fraction should error")
	}
	if _, err := Run(w, f, Options{CapacityFraction: 2, Beta: 2}); err == nil {
		t.Error("capacity fraction above 1 should error")
	}
	if _, err := Run(w, f, Options{CapacityFraction: math.NaN(), Beta: 2}); err == nil {
		t.Error("NaN capacity fraction should error")
	}
	if _, err := Run(w, f, Options{CapacityFraction: 0.05, Beta: 2, FetchCosts: []float64{1}}); err == nil {
		t.Error("mismatched fetch costs should error")
	}
	if _, err := Run(w, f, Options{CapacityFraction: 0.05, Beta: 0}); err == nil {
		t.Error("GD* with zero beta should error")
	}
	// A subscription matrix without one row per page and one column
	// per server is an error, not an index panic mid-replay.
	for _, misshape := range []func(w *workload.Workload){
		func(w *workload.Workload) { w.Subscriptions = w.Subscriptions[1:] },
		func(w *workload.Workload) { w.Subscriptions[3] = w.Subscriptions[3][1:] },
		func(w *workload.Workload) { w.Subscriptions[3] = append(w.Subscriptions[3], 1) },
	} {
		bad := testWorkload(t, workload.TraceNEWS, 1)
		misshape(bad)
		if _, err := Run(bad, f, DefaultOptions()); err == nil {
			t.Error("a misshapen subscription matrix should error")
		}
	}
}

func TestRunAccountingConsistency(t *testing.T) {
	w := testWorkload(t, workload.TraceNEWS, 1)
	res := runStrategy(t, w, "GD*", DefaultOptions())
	if res.Requests != int64(len(w.Requests)) {
		t.Errorf("requests = %d, want %d", res.Requests, len(w.Requests))
	}
	var hourlyHits, hourlyReqs, fetched int64
	for i := range res.HourlyHits {
		hourlyHits += res.HourlyHits[i]
		hourlyReqs += res.HourlyRequests[i]
		fetched += res.FetchedPages[i]
	}
	if hourlyHits != res.Hits || hourlyReqs != res.Requests {
		t.Errorf("hourly sums (%d, %d) != totals (%d, %d)", hourlyHits, hourlyReqs, res.Hits, res.Requests)
	}
	if fetched != res.Requests-res.Hits {
		t.Errorf("fetches %d != misses %d", fetched, res.Requests-res.Hits)
	}
	var serverHits, serverReqs int64
	for i := range res.PerServerHits {
		serverHits += res.PerServerHits[i]
		serverReqs += res.PerServerRequests[i]
		if res.PerServerHits[i] > res.PerServerRequests[i] {
			t.Fatalf("server %d: hits exceed requests", i)
		}
	}
	if serverHits != res.Hits || serverReqs != res.Requests {
		t.Error("per-server sums do not match totals")
	}
	if hr := res.HitRatio(); hr < 0 || hr > 1 {
		t.Errorf("hit ratio %g outside [0, 1]", hr)
	}
}

func TestGDStarTrafficIndependentOfScheme(t *testing.T) {
	w := testWorkload(t, workload.TraceNEWS, 1)
	res := runStrategy(t, w, "GD*", DefaultOptions())
	// GD* never stores a push, so PWN pushes must be zero and AP pushes
	// are pure waste.
	for i := range res.PushedPagesPWN {
		if res.PushedPagesPWN[i] != 0 {
			t.Fatalf("GD* stored a push at hour %d", i)
		}
	}
	if res.TotalTraffic(PushWhenNecessary) != res.Requests-res.Hits {
		t.Errorf("GD* PWN traffic %d != misses %d", res.TotalTraffic(PushWhenNecessary), res.Requests-res.Hits)
	}
}

func TestPWNTrafficNeverExceedsAP(t *testing.T) {
	w := testWorkload(t, workload.TraceNEWS, 1)
	for _, name := range []string{"SUB", "SG2", "DC-LAP"} {
		res := runStrategy(t, w, name, DefaultOptions())
		for i := range res.PushedPagesAP {
			if res.PushedPagesPWN[i] > res.PushedPagesAP[i] {
				t.Fatalf("%s: PWN pushes exceed AP at hour %d", name, i)
			}
			if res.PushedBytesPWN[i] > res.PushedBytesAP[i] {
				t.Fatalf("%s: PWN bytes exceed AP at hour %d", name, i)
			}
		}
		if res.TotalTraffic(PushWhenNecessary) > res.TotalTraffic(AlwaysPush) {
			t.Errorf("%s: PWN total exceeds AP", name)
		}
		if res.TotalTrafficBytes(PushWhenNecessary) > res.TotalTrafficBytes(AlwaysPush) {
			t.Errorf("%s: PWN byte total exceeds AP", name)
		}
	}
}

func TestSubscriptionStrategiesBeatBaseline(t *testing.T) {
	// The paper's headline: push-enhanced schemes beat GD* on hit ratio
	// at SQ=1 (Fig. 4). This is the core end-to-end property.
	w := testWorkload(t, workload.TraceNEWS, 1)
	opts := DefaultOptions()
	base := runStrategy(t, w, "GD*", opts).HitRatio()
	for _, name := range []string{"SG1", "SG2", "SR", "DC-FP", "DC-LAP", "DM"} {
		got := runStrategy(t, w, name, opts).HitRatio()
		if got <= base {
			t.Errorf("%s hit ratio %.3f should beat GD* %.3f at SQ=1", name, got, base)
		}
	}
}

func TestHitRatioGrowsWithCapacity(t *testing.T) {
	w := testWorkload(t, workload.TraceNEWS, 1)
	for _, name := range []string{"GD*", "SG2", "DC-LAP"} {
		prev := -1.0
		for _, frac := range []float64{0.01, 0.05, 0.10} {
			opts := DefaultOptions()
			opts.CapacityFraction = frac
			hr := runStrategy(t, w, name, opts).HitRatio()
			if hr < prev-0.02 { // small tolerance: adaptive schemes may wobble
				t.Errorf("%s: hit ratio fell from %.3f to %.3f as capacity grew to %g", name, prev, hr, frac)
			}
			prev = hr
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	w := testWorkload(t, workload.TraceNEWS, 1)
	a := runStrategy(t, w, "DC-LAP", DefaultOptions())
	b := runStrategy(t, w, "DC-LAP", DefaultOptions())
	if a.Hits != b.Hits || a.Requests != b.Requests {
		t.Errorf("identical runs diverged: %d/%d vs %d/%d", a.Hits, a.Requests, b.Hits, b.Requests)
	}
	if a.TotalTraffic(AlwaysPush) != b.TotalTraffic(AlwaysPush) {
		t.Error("traffic diverged across identical runs")
	}
}

func TestHourlyHitRatioSeries(t *testing.T) {
	w := testWorkload(t, workload.TraceNEWS, 1)
	res := runStrategy(t, w, "SG2", DefaultOptions())
	series := res.HourlyHitRatio()
	if len(series) != 168 {
		t.Fatalf("hourly series length %d, want 168", len(series))
	}
	valid := 0
	for _, v := range series {
		if !math.IsNaN(v) {
			if v < 0 || v > 1 {
				t.Fatalf("hourly ratio %g outside [0, 1]", v)
			}
			valid++
		}
	}
	if valid < 100 {
		t.Errorf("only %d/168 hours have requests; workload too sparse", valid)
	}
}

func TestSUBHitRatioDecaysOverTime(t *testing.T) {
	// Fig. 6: SUB starts strong and decays; its first-day hit ratio
	// should exceed its last-day hit ratio.
	w := testWorkload(t, workload.TraceNEWS, 1)
	res := runStrategy(t, w, "SUB", DefaultOptions())
	day := func(d int) float64 {
		var hits, reqs int64
		for h := d * 24; h < (d+1)*24; h++ {
			hits += res.HourlyHits[h]
			reqs += res.HourlyRequests[h]
		}
		if reqs == 0 {
			return math.NaN()
		}
		return float64(hits) / float64(reqs)
	}
	if day(0) <= day(6) {
		t.Errorf("SUB day-0 ratio %.3f should exceed day-6 ratio %.3f", day(0), day(6))
	}
}

func TestPushSchemeString(t *testing.T) {
	if AlwaysPush.String() != "Always-Pushing" {
		t.Error("AlwaysPush name wrong")
	}
	if PushWhenNecessary.String() != "Pushing-When-Necessary" {
		t.Error("PushWhenNecessary name wrong")
	}
	if PushScheme(0).String() != "PushScheme(0)" {
		t.Error("unknown scheme should format numerically")
	}
}

func TestExternalFetchCosts(t *testing.T) {
	w := testWorkload(t, workload.TraceNEWS, 1)
	f, err := core.Lookup("GD*")
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, w.Config.Servers)
	for i := range costs {
		costs[i] = 1
	}
	opts := DefaultOptions()
	opts.FetchCosts = costs
	if _, err := Run(w, f, opts); err != nil {
		t.Fatalf("uniform external costs rejected: %v", err)
	}
}

func TestLowSQStillRuns(t *testing.T) {
	w := testWorkload(t, workload.TraceNEWS, 0.25)
	base := runStrategy(t, w, "GD*", DefaultOptions()).HitRatio()
	sg1 := runStrategy(t, w, "SG1", DefaultOptions()).HitRatio()
	// SG1 is robust to low SQ (Fig. 5) — it should stay at or above the
	// baseline.
	if sg1 < base-0.02 {
		t.Errorf("SG1 at SQ=0.25 (%.3f) collapsed below GD* (%.3f)", sg1, base)
	}
}
