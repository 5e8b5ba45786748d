package workload

import (
	"math"
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

// boundaryWorkload is a hand-built one-day workload (24 hours) over
// three servers and three pages whose events sit on the hour index's
// edges: at t = 0, exactly on hour boundaries, with publications and
// requests at equal times, with hours that hold no event, a request
// before its page's first publication, and events at and past the
// horizon, which the clamp puts in the last hour.
func boundaryWorkload() *Workload {
	cfg := DefaultConfig(TraceNEWS)
	cfg.Days = 1
	cfg.Servers = 3
	return &Workload{
		Config: cfg,
		Pages: []Page{
			{ID: 0, Size: 100, Class: 0},
			{ID: 1, Size: 200, Class: 1},
			{ID: 2, Size: 300, Class: 2},
		},
		Publications: []Publication{
			{Time: 0, Page: 0, Version: 1},
			{Time: 1, Page: 1, Version: 1},
			{Time: 1, Page: 0, Version: 2},
			{Time: 2.5, Page: 2, Version: 1},
			{Time: 23, Page: 1, Version: 2},
			{Time: 24, Page: 0, Version: 3},
			{Time: 30, Page: 2, Version: 2},
		},
		Requests: []Request{
			{Time: 0, Page: 0, Server: 0},
			{Time: 0, Page: 2, Server: 1},
			{Time: 1, Page: 0, Server: 2},
			{Time: 1, Page: 1, Server: 0},
			{Time: 5, Page: 1, Server: 1},
			{Time: 23.999, Page: 0, Server: 2},
			{Time: 24, Page: 0, Server: 0},
			{Time: 31, Page: 2, Server: 1},
		},
		Subscriptions: [][]int32{
			{1, 0, 2},
			{0, 3, 0},
			{1, 1, 0},
		},
	}
}

// checkViewAgainstMerge re-runs the global interleaved merge the
// sequential simulator performs and checks that the view's per-server
// streams are exactly its per-server restriction: same event order,
// page, request flag and resolved version at every event, every event
// inside the hour window of its source time. TimedEvents must yield
// the same events with their exact source times and hours.
func checkViewAgainstMerge(t *testing.T, w *Workload) {
	t.Helper()
	v := w.Events()
	servers := w.Config.Servers
	hours := int(math.Ceil(w.Config.Horizon()))
	if v.Hours != hours {
		t.Fatalf("view has %d hours, want %d", v.Hours, hours)
	}
	if len(v.Streams) != servers || len(v.HourStarts) != servers {
		t.Fatalf("view has %d streams and %d hour indexes; want %d each",
			len(v.Streams), len(v.HourStarts), servers)
	}
	for s := 0; s < servers; s++ {
		starts := v.HourStarts[s]
		if len(starts) != hours+1 || starts[0] != 0 || int(starts[hours]) != len(v.Streams[s]) {
			t.Fatalf("server %d hour index %v does not span its %d events in %d hours",
				s, starts, len(v.Streams[s]), hours)
		}
		if !slices.IsSorted(starts) {
			t.Fatalf("server %d hour index %v is not ascending", s, starts)
		}
	}
	timed := make([][]ServerEvent, servers)
	for s := range timed {
		timed[s] = w.TimedEvents(s)
		if len(timed[s]) != len(v.Streams[s]) {
			t.Fatalf("server %d: TimedEvents yields %d events, stream holds %d", s, len(timed[s]), len(v.Streams[s]))
		}
	}

	cursors := make([]int, servers)
	next := func(s int, time float64, page, version int32, request bool) {
		t.Helper()
		i := cursors[s]
		cursors[s]++
		if i >= len(v.Streams[s]) {
			t.Fatalf("server %d stream ends at %d events; the merge routes more", s, i)
		}
		ev := v.Streams[s][i]
		if ev.Request() != request || ev.Page() != int(page) || ev.Version != version {
			t.Fatalf("server %d event %d = {page %d version %d request %v}, want {page %d version %d request %v} at t=%g",
				s, i, ev.Page(), ev.Version, ev.Request(), page, version, request, time)
		}
		hour := min(max(int(time), 0), hours-1)
		if lo, hi := int(v.HourStarts[s][hour]), int(v.HourStarts[s][hour+1]); i < lo || i >= hi {
			t.Fatalf("server %d event %d at t=%g lies outside hour %d's window [%d, %d)", s, i, time, hour, lo, hi)
		}
		want := ServerEvent{Time: time, Hour: hour, Page: page, Version: version, Request: request}
		if timed[s][i] != want {
			t.Fatalf("server %d TimedEvents[%d] = %+v, want %+v", s, i, timed[s][i], want)
		}
	}
	current := make([]int32, len(w.Pages))
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
			for s, n := range w.Subscriptions[p.Page] {
				if n > 0 {
					next(s, p.Time, p.Page, p.Version, false)
				}
			}
			continue
		}
		r := reqs[ri]
		ri++
		next(int(r.Server), r.Time, r.Page, max(current[r.Page], 0), true)
	}
	for s, c := range cursors {
		if c != len(v.Streams[s]) {
			t.Errorf("server %d stream has %d events, replay consumed %d", s, len(v.Streams[s]), c)
		}
	}
}

// TestEventViewMatchesSequentialReplay checks a generated workload's
// view against the sequential merge (see checkViewAgainstMerge).
func TestEventViewMatchesSequentialReplay(t *testing.T) {
	checkViewAgainstMerge(t, eventTestWorkload(t))
}

// TestEventViewHourBoundaries checks the hand-built boundary workload's
// view against the sequential merge, and pins server 0's hour index:
// two events in hour 0 (t = 0), two in hour 1 (t = 1), one in hour 2,
// none in hours 3-22, and the three events at t = 24 and t = 30 clamped
// into hour 23.
func TestEventViewHourBoundaries(t *testing.T) {
	w := boundaryWorkload()
	checkViewAgainstMerge(t, w)
	want := []int32{0, 2, 4}
	for len(want) < 24 {
		want = append(want, 5)
	}
	want = append(want, 8)
	if got := w.Events().HourStarts[0]; !slices.Equal(got, want) {
		t.Errorf("server 0 hour index = %v, want %v", got, want)
	}
	// The request at t = 0 for page 2 precedes its first publication:
	// the version floors at 0.
	if ev := w.Events().Streams[1][0]; !ev.Request() || ev.Page() != 2 || ev.Version != 0 {
		t.Errorf("server 1 event 0 = {page %d version %d request %v}, want the floored request for page 2",
			ev.Page(), ev.Version, ev.Request())
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
	seen := make([]map[int32]bool, w.Config.Servers)
	for i := range seen {
		seen[i] = make(map[int32]bool)
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
	for s := 0; s < w.Config.Servers; s++ {
		stream := w.TimedEvents(s)
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

// BenchmarkEventView builds the event view of the paper-scale NEWS
// workload (scale 1, trace seed 1: about 1.2 million stream entries),
// the layer behind perfbench's workload.events_ms share of sim_paper's
// setup. B/op is the view's allocated size plus about 0.1 MB of
// transient per-page subscriber lists.
func BenchmarkEventView(b *testing.B) {
	w, err := Generate(ScaledConfig(TraceNEWS, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eventViewSink = buildEventView(w)
	}
}

var eventViewSink *EventView

// BenchmarkGenerate generates the paper-scale NEWS workload (scale 1,
// trace seed 1: 6 000 pages, 30 147 publications, 195 000 requests),
// the layer behind perfbench's workload.generate_ms share of
// sim_paper's setup.
func BenchmarkGenerate(b *testing.B) {
	cfg := ScaledConfig(TraceNEWS, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		generateSink = w
	}
}

var generateSink *Workload
