package core

import "testing"

// miniWorkload drives a deterministic mix of pushes and requests with
// skewed sizes and subscription counts through a strategy, small enough
// to read but large enough to exercise admission, rejection, eviction
// and stale-refresh paths on every scheme. It returns the observed
// outcome tallies reconstructed from the Strategy interface's return
// values alone.
func miniWorkload(t *testing.T, s Strategy) (requests, hits int64) {
	t.Helper()
	const pages = 40
	version := make([]int, pages)
	for round := 0; round < 6; round++ {
		for id := 0; id < pages; id++ {
			meta := PageMeta{
				ID:   id,
				Size: int64(500 + (id*337)%4000),
				Cost: 1 + float64(id%5),
			}
			subs := 1 + (id*7+round)%9
			if (id+round)%3 == 0 {
				// Publish a new version and offer it.
				version[id]++
				s.Push(meta, version[id], subs)
			}
			if (id*5+round)%2 == 0 {
				hit, _ := s.Request(meta, version[id], subs)
				requests++
				if hit {
					hits++
				}
			}
		}
	}
	return requests, hits
}

// TestEveryStrategyProvidesReconcilingStats asserts that every factory
// in the catalog yields a StatsProvider — including the composite DM
// and DC-* strategies — and that its counters reconcile with each other
// and with the outcomes observable through the Strategy interface.
func TestEveryStrategyProvidesReconcilingStats(t *testing.T) {
	for _, f := range Catalog() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			s, err := f.New(Params{Capacity: 20_000, Beta: 2})
			if err != nil {
				t.Fatal(err)
			}
			sp, ok := s.(StatsProvider)
			if !ok {
				t.Fatalf("strategy %s does not implement StatsProvider", f.Name)
			}
			requests, hits := miniWorkload(t, s)
			st := sp.OpStats()

			if st.Requests != requests {
				t.Errorf("Requests = %d, want %d observed", st.Requests, requests)
			}
			if st.Hits != hits {
				t.Errorf("Hits = %d, want %d observed fresh hits", st.Hits, hits)
			}
			if st.PushStores > st.PushOffers {
				t.Errorf("PushStores %d > PushOffers %d", st.PushStores, st.PushOffers)
			}
			if st.Hits+st.StaleRefreshes > st.Requests {
				t.Errorf("Hits %d + StaleRefreshes %d > Requests %d", st.Hits, st.StaleRefreshes, st.Requests)
			}
			misses := st.Requests - st.Hits - st.StaleRefreshes
			if st.AccessAdmits+st.AccessRejects > misses {
				t.Errorf("AccessAdmits %d + AccessRejects %d > misses %d", st.AccessAdmits, st.AccessRejects, misses)
			}
			if st.EvictedBytes < st.Evictions {
				t.Errorf("EvictedBytes %d < Evictions %d", st.EvictedBytes, st.Evictions)
			}
			if f.UsesPush() && st.PushOffers == 0 {
				t.Errorf("pushing scheme %s saw no push offers — workload too small?", f.Name)
			}
			if !f.UsesPush() && st.PushOffers != 0 {
				t.Errorf("access-only scheme %s counted %d push offers", f.Name, st.PushOffers)
			}
			// The workload must exercise the interesting paths at least
			// somewhere; evictions are guaranteed by the small capacity.
			if st.Evictions == 0 && f.Name != "SUB" {
				t.Errorf("no evictions recorded for %s under a capacity-starved workload", f.Name)
			}
		})
	}
}
