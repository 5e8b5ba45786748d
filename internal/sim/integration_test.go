package sim

import (
	"testing"

	"pubsubcd/internal/match"
	"pubsubcd/internal/workload"
)

// TestMatchingEngineAgreesWithAggregatedCounts drives the real matching
// engine with materialised subscription objects and verifies it produces
// exactly the aggregated per-proxy counts the simulator consumes — the
// bridge between the live pub/sub substrate and the simulation study.
func TestMatchingEngineAgreesWithAggregatedCounts(t *testing.T) {
	cfg := workload.DefaultConfig(workload.TraceNEWS)
	cfg.DistinctPages = 60
	cfg.ModifiedPages = 20
	cfg.TotalPublished = 120
	cfg.TotalRequests = 800
	cfg.Servers = 8
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	engine := match.NewEngine()
	for _, sub := range w.SubscriptionObjects() {
		if _, err := engine.Subscribe(sub); err != nil {
			t.Fatal(err)
		}
	}

	for page := range w.Pages {
		counts := engine.MatchCounts(workload.PageEvent(page))
		for server := 0; server < cfg.Servers; server++ {
			want := w.SubCount(page, server)
			if got := counts[server]; got != want {
				t.Fatalf("page %d server %d: engine count %d, workload count %d", page, server, got, want)
			}
		}
	}
}

// TestSimulationMatchesLiveMatchingCounts reruns a small simulation with
// subscription counts derived through the matching engine instead of the
// workload's own table and verifies identical results.
func TestSimulationMatchesLiveMatchingCounts(t *testing.T) {
	cfg := workload.DefaultConfig(workload.TraceNEWS)
	cfg.DistinctPages = 60
	cfg.ModifiedPages = 20
	cfg.TotalPublished = 120
	cfg.TotalRequests = 800
	cfg.Servers = 8
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	direct := runStrategy(t, w, "SG2", DefaultOptions())

	// Rebuild the subscription table through the engine and swap it in.
	engine := match.NewEngine()
	for _, sub := range w.SubscriptionObjects() {
		if _, err := engine.Subscribe(sub); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt := make([][]int32, len(w.Pages))
	for page := range w.Pages {
		rebuilt[page] = make([]int32, cfg.Servers)
		counts := engine.MatchCounts(workload.PageEvent(page))
		for server, n := range counts {
			rebuilt[page][server] = int32(n)
		}
	}
	// A fresh Workload (not a value copy of w) so the swapped
	// subscription table gets its own event view.
	w2 := &workload.Workload{
		Config:        w.Config,
		Pages:         w.Pages,
		Publications:  w.Publications,
		Requests:      w.Requests,
		Subscriptions: rebuilt,
	}
	viaEngine := runStrategy(t, w2, "SG2", DefaultOptions())

	if direct.Hits != viaEngine.Hits || direct.Requests != viaEngine.Requests {
		t.Errorf("results diverge: direct %d/%d, via engine %d/%d",
			direct.Hits, direct.Requests, viaEngine.Hits, viaEngine.Requests)
	}
	if direct.TotalTraffic(AlwaysPush) != viaEngine.TotalTraffic(AlwaysPush) {
		t.Error("traffic diverges between direct and engine-derived subscriptions")
	}
}
