package workload

import (
	"slices"
	"sync"
	"testing"
)

func eventTestWorkload(t *testing.T) *Workload {
	t.Helper()
	cfg := DefaultConfig(TraceNEWS)
	cfg.DistinctPages = 300
	cfg.ModifiedPages = 120
	cfg.TotalPublished = 1500
	cfg.TotalRequests = 9000
	cfg.Servers = 12
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestEventViewMatchesSequentialReplay re-runs the global interleaved
// merge the sequential simulator performs and checks that the view's
// per-server streams are exactly its per-server restriction: same event
// order, same routed subscription counts, and the same resolved version
// at every request.
func TestEventViewMatchesSequentialReplay(t *testing.T) {
	w := eventTestWorkload(t)
	v := w.Events()
	if len(v.Streams) != w.Config.Servers {
		t.Fatalf("view has %d streams, want %d", len(v.Streams), w.Config.Servers)
	}

	cursors := make([]int, w.Config.Servers)
	current := make([]int, len(w.Pages))
	for i := range current {
		current[i] = -1
	}
	pubs, reqs := w.Publications, w.Requests
	pi, ri := 0, 0
	for pi < len(pubs) || ri < len(reqs) {
		if pi < len(pubs) && (ri >= len(reqs) || pubs[pi].Time <= reqs[ri].Time) {
			p := pubs[pi]
			pi++
			if p.Version > current[p.Page] {
				current[p.Page] = p.Version
			}
			row := w.Subscriptions[p.Page]
			for s := 0; s < w.Config.Servers; s++ {
				if row[s] == 0 {
					continue
				}
				ev := v.Streams[s][cursors[s]]
				cursors[s]++
				if ev.Request || int(ev.Page) != p.Page || int(ev.Version) != p.Version ||
					ev.Time != p.Time || ev.Subs != row[s] {
					t.Fatalf("server %d publication event mismatch: got %+v, want pub %+v subs=%d",
						s, ev, p, row[s])
				}
			}
			continue
		}
		r := reqs[ri]
		ri++
		version := current[r.Page]
		if version < 0 {
			version = 0
		}
		ev := v.Streams[r.Server][cursors[r.Server]]
		cursors[r.Server]++
		if !ev.Request || int(ev.Page) != r.Page || ev.Time != r.Time {
			t.Fatalf("server %d request event mismatch: got %+v, want %+v", r.Server, ev, r)
		}
		if int(ev.Version) != version {
			t.Fatalf("request for page %d at t=%g resolved version %d, want %d",
				r.Page, r.Time, ev.Version, version)
		}
		if ev.Subs != w.Subscriptions[r.Page][r.Server] {
			t.Fatalf("request subs = %d, want %d", ev.Subs, w.Subscriptions[r.Page][r.Server])
		}
	}
	for s, c := range cursors {
		if c != len(v.Streams[s]) {
			t.Errorf("server %d stream has %d events, replay consumed %d", s, len(v.Streams[s]), c)
		}
	}
}

// TestCacheCapacitiesWithoutEventView: the workload sizes caches from
// one pass over its requests, to the capacities the event view gives,
// for both traces at two scales, and leaves the view unbuilt.
func TestCacheCapacitiesWithoutEventView(t *testing.T) {
	fractions := []float64{0.05, 0.3}
	for _, trace := range []TraceName{TraceNEWS, TraceALTERNATIVE} {
		for _, scale := range []int{20, 100} {
			w, err := Generate(ScaledConfig(trace, scale))
			if err != nil {
				t.Fatal(err)
			}
			caps := make([][]int64, len(fractions))
			for i, f := range fractions {
				if caps[i], err = w.CacheCapacities(f); err != nil {
					t.Fatal(err)
				}
			}
			unique := w.UniqueBytesPerServer()
			if w.events != nil {
				t.Fatalf("%s scale %d: cache sizing built the event view", trace, scale)
			}
			view := w.Events()
			for i, f := range fractions {
				if want := view.CacheCapacities(f); !slices.Equal(caps[i], want) {
					t.Errorf("%s scale %d fraction %g: capacities %v, event view %v", trace, scale, f, caps[i], want)
				}
			}
			if !slices.Equal(unique, view.UniqueBytes) {
				t.Errorf("%s scale %d: unique bytes %v, event view %v", trace, scale, unique, view.UniqueBytes)
			}
		}
	}
}

// TestEventViewUniqueBytes checks the view's cache-sizing totals against
// an independent map-based computation.
func TestEventViewUniqueBytes(t *testing.T) {
	w := eventTestWorkload(t)
	seen := make([]map[int]bool, w.Config.Servers)
	for i := range seen {
		seen[i] = make(map[int]bool)
	}
	want := make([]int64, w.Config.Servers)
	for _, r := range w.Requests {
		if !seen[r.Server][r.Page] {
			seen[r.Server][r.Page] = true
			want[r.Server] += w.Pages[r.Page].Size
		}
	}
	got := w.UniqueBytesPerServer()
	for s := range want {
		if got[s] != want[s] {
			t.Errorf("server %d unique bytes = %d, want %d", s, got[s], want[s])
		}
	}
	caps, err := w.CacheCapacities(0.05)
	if err != nil {
		t.Fatal(err)
	}
	for s := range caps {
		expect := int64(float64(want[s]) * 0.05)
		if expect < 1 {
			expect = 1
		}
		if caps[s] != expect {
			t.Errorf("server %d capacity = %d, want %d", s, caps[s], expect)
		}
	}
}

// TestEventViewConcurrentAccess hammers Events from many goroutines; all
// callers must observe the identical cached view (run under -race).
func TestEventViewConcurrentAccess(t *testing.T) {
	w := eventTestWorkload(t)
	const n = 8
	views := make([]*EventView, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i] = w.Events()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if views[i] != views[0] {
			t.Fatal("Events returned distinct views to concurrent callers")
		}
	}
}

// TestEventViewStreamsSorted asserts each per-server stream is
// time-ordered with publications before requests at equal timestamps.
func TestEventViewStreamsSorted(t *testing.T) {
	w := eventTestWorkload(t)
	for s, stream := range w.Events().Streams {
		for i := 1; i < len(stream); i++ {
			a, b := stream[i-1], stream[i]
			if b.Time < a.Time {
				t.Fatalf("server %d stream out of order at %d: %g after %g", s, i, b.Time, a.Time)
			}
			if b.Time == a.Time && a.Request && !b.Request {
				t.Fatalf("server %d: request precedes publication at t=%g", s, a.Time)
			}
		}
	}
}
