package workload

import (
	"math"
	"sort"
	"testing"

	"pubsubcd/internal/stats"
)

// testConfig is a small but structurally faithful workload for unit tests.
func testConfig() Config {
	cfg := DefaultConfig(TraceNEWS)
	cfg.DistinctPages = 300
	cfg.ModifiedPages = 120
	cfg.TotalPublished = 1500
	cfg.TotalRequests = 10000
	cfg.Servers = 20
	return cfg
}

func mustGenerate(t *testing.T, cfg Config) *Workload {
	t.Helper()
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidate(t *testing.T) {
	base := DefaultConfig(TraceNEWS)
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []struct {
		name string
		f    func(*Config)
	}{
		{"zero days", func(c *Config) { c.Days = 0 }},
		{"zero servers", func(c *Config) { c.Servers = 0 }},
		{"zero pages", func(c *Config) { c.DistinctPages = 0 }},
		{"modified exceeds distinct", func(c *Config) { c.ModifiedPages = c.DistinctPages + 1 }},
		{"negative modified", func(c *Config) { c.ModifiedPages = -1 }},
		{"published below distinct", func(c *Config) { c.TotalPublished = c.DistinctPages - 1 }},
		{"negative alpha", func(c *Config) { c.Alpha = -0.5 }},
		{"negative requests", func(c *Config) { c.TotalRequests = -1 }},
		{"zero SQ", func(c *Config) { c.SQ = 0 }},
		{"SQ above one", func(c *Config) { c.SQ = 1.5 }},
		{"bad overlap", func(c *Config) { c.ServerOverlap = 1.5 }},
		{"bad notification frac", func(c *Config) { c.NotificationDrivenFrac = -0.1 }},
		{"NaN alpha", func(c *Config) { c.Alpha = math.NaN() }},
		{"NaN SQ", func(c *Config) { c.SQ = math.NaN() }},
		{"NaN overlap", func(c *Config) { c.ServerOverlap = math.NaN() }},
		{"NaN notification frac", func(c *Config) { c.NotificationDrivenFrac = math.NaN() }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := base
			m.f(&cfg)
			// Fatal: Generate may not terminate on a config Validate
			// wrongly admits (a NaN SQ spins its rejection sampler).
			if err := cfg.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
			if _, err := Generate(cfg); err == nil {
				t.Error("Generate should reject invalid config")
			}
		})
	}
}

func TestTraceNames(t *testing.T) {
	if DefaultConfig(TraceNEWS).Trace() != TraceNEWS {
		t.Error("NEWS config should report TraceNEWS")
	}
	if DefaultConfig(TraceALTERNATIVE).Trace() != TraceALTERNATIVE {
		t.Error("ALTERNATIVE config should report TraceALTERNATIVE")
	}
	if DefaultConfig(TraceNEWS).Alpha != 1.5 {
		t.Error("NEWS alpha should be 1.5")
	}
	if DefaultConfig(TraceALTERNATIVE).Alpha != 1.0 {
		t.Error("ALTERNATIVE alpha should be 1.0")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := testConfig()
	a := mustGenerate(t, cfg)
	b := mustGenerate(t, cfg)
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("request counts differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
	for i := range a.Publications {
		if a.Publications[i] != b.Publications[i] {
			t.Fatalf("publication %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := testConfig()
	a := mustGenerate(t, cfg)
	cfg.Seed = 2
	b := mustGenerate(t, cfg)
	same := 0
	n := len(a.Requests)
	if len(b.Requests) < n {
		n = len(b.Requests)
	}
	for i := 0; i < n; i++ {
		if a.Requests[i] == b.Requests[i] {
			same++
		}
	}
	if same > n/10 {
		t.Errorf("different seeds produced %d/%d identical requests", same, n)
	}
}

func TestPublishingStreamShape(t *testing.T) {
	cfg := testConfig()
	w := mustGenerate(t, cfg)
	if len(w.Pages) != cfg.DistinctPages {
		t.Fatalf("pages = %d, want %d", len(w.Pages), cfg.DistinctPages)
	}
	if len(w.Publications) > cfg.TotalPublished {
		t.Fatalf("publications = %d, exceeds TotalPublished %d", len(w.Publications), cfg.TotalPublished)
	}
	// With the paper's proportions the version candidates exceed the
	// quota, so the subsample should land exactly on the target.
	if len(w.Publications) != cfg.TotalPublished {
		t.Errorf("publications = %d, want exactly %d", len(w.Publications), cfg.TotalPublished)
	}
	horizon := cfg.Horizon()
	for i, p := range w.Publications {
		if p.Time < 0 || p.Time >= horizon {
			t.Fatalf("publication %d at %g outside [0, %g)", i, p.Time, horizon)
		}
		if i > 0 && !publicationsInOrder(w.Publications[i-1], p) {
			t.Fatalf("publications %d and %d out of (Time, Page, Version) order: %+v, %+v", i-1, i, w.Publications[i-1], p)
		}
	}
	// Version numbering is contiguous per page starting at 0.
	versions := make(map[int][]int)
	for _, p := range w.Publications {
		versions[int(p.Page)] = append(versions[int(p.Page)], int(p.Version))
	}
	if len(versions) != cfg.DistinctPages {
		t.Fatalf("only %d pages appear in publishing stream", len(versions))
	}
	for page, vs := range versions {
		sort.Ints(vs)
		for i, v := range vs {
			if v != i {
				t.Fatalf("page %d versions not contiguous: %v", page, vs)
			}
		}
		if len(vs) != w.Pages[page].Versions {
			t.Fatalf("page %d Versions=%d but %d published", page, w.Pages[page].Versions, len(vs))
		}
	}
}

func TestPageSizesPositive(t *testing.T) {
	w := mustGenerate(t, testConfig())
	for _, p := range w.Pages {
		if p.Size < 1 {
			t.Fatalf("page %d has size %d", p.ID, p.Size)
		}
	}
}

func TestRequestStreamShape(t *testing.T) {
	cfg := testConfig()
	w := mustGenerate(t, cfg)
	if len(w.Requests) != cfg.TotalRequests {
		t.Fatalf("requests = %d, want %d", len(w.Requests), cfg.TotalRequests)
	}
	horizon := cfg.Horizon()
	for i, r := range w.Requests {
		if r.Time < 0 || r.Time >= horizon {
			t.Fatalf("request %d at %g outside horizon", i, r.Time)
		}
		if r.Server < 0 || int(r.Server) >= cfg.Servers {
			t.Fatalf("request %d at invalid server %d", i, r.Server)
		}
		if r.Page < 0 || int(r.Page) >= cfg.DistinctPages {
			t.Fatalf("request %d for invalid page %d", i, r.Page)
		}
		if i > 0 && !requestsInOrder(w.Requests[i-1], r) {
			t.Fatalf("requests %d and %d out of (Time, Page, Server) order: %+v, %+v", i-1, i, w.Requests[i-1], r)
		}
		if r.Time < w.Pages[r.Page].FirstPublish {
			t.Fatalf("request %d at %g precedes publication %g", i, r.Time, w.Pages[r.Page].FirstPublish)
		}
	}
}

// requestsInOrder reports whether a may precede b in the request
// stream: ascending time, then page, then server. It is written out
// here rather than calling the generator's comparator, so a comparator
// that skips a key fails against it.
func requestsInOrder(a, b Request) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Page != b.Page {
		return a.Page < b.Page
	}
	return a.Server <= b.Server
}

// publicationsInOrder reports whether a may precede b in the
// publishing stream: ascending time, then page, then version.
func publicationsInOrder(a, b Publication) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Page != b.Page {
		return a.Page < b.Page
	}
	return a.Version <= b.Version
}

// TestRequestOrderBreaksClampedTiesByServer: the horizon clamp puts
// requests of one page at exactly horizon - 1e-9, where only the
// server orders them. Two pages first published 1e-7 hours before the
// horizon of a one-day trace draw most of their requests past it; the
// clamped requests share one time, sit on several servers in the last
// bucket of the generator's counting sort, and must come out in
// (Time, Page, Server) order.
func TestRequestOrderBreaksClampedTiesByServer(t *testing.T) {
	cfg := DefaultConfig(TraceNEWS)
	cfg.Days = 1
	cfg.Servers = 20
	horizon := cfg.Horizon()
	pages := []Page{
		{ID: 0, FirstPublish: 3, Class: 0},
		{ID: 1, FirstPublish: horizon - 1e-7, Class: 0},
		{ID: 2, FirstPublish: horizon - 1e-7, Class: 1},
	}
	counts := []int{40, 10, 8}
	cfg.TotalRequests = 58
	requests, err := generateRequests(cfg, pages, counts, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(requests) != cfg.TotalRequests {
		t.Fatalf("%d requests, want %d", len(requests), cfg.TotalRequests)
	}
	clampedServers := map[int32]map[int32]bool{1: {}, 2: {}}
	for i, r := range requests {
		if i > 0 && !requestsInOrder(requests[i-1], r) {
			t.Fatalf("requests %d and %d out of (Time, Page, Server) order: %+v, %+v", i-1, i, requests[i-1], r)
		}
		if r.Time == horizon-1e-9 && r.Page > 0 {
			clampedServers[r.Page][r.Server] = true
		}
	}
	for page, servers := range clampedServers {
		if len(servers) < 3 {
			t.Errorf("page %d has clamped requests on %d servers, want at least 3 to exercise the server tie-break", page, len(servers))
		}
	}
}

func TestZipfPopularityShape(t *testing.T) {
	cfg := testConfig()
	w := mustGenerate(t, cfg)
	counts := make(map[int]int)
	for _, r := range w.Requests {
		counts[int(r.Page)]++
	}
	// The rank-1 page must receive more requests than the rank-100 page.
	var rank1, rank100 int
	for _, p := range w.Pages {
		if p.Rank == 1 {
			rank1 = counts[p.ID]
		}
		if p.Rank == 100 {
			rank100 = counts[p.ID]
		}
	}
	if rank1 <= rank100 {
		t.Errorf("rank 1 page has %d requests, rank 100 has %d; Zipf shape violated", rank1, rank100)
	}
	// Rough magnitude: with day-local Zipf cohorts, rank 100 globally is
	// a mid-rank page within its cohort, so the ratio is well below the
	// raw 100^1.5, but still at least an order of magnitude.
	if rank100 > 0 && float64(rank1)/float64(rank100) < 10 {
		t.Errorf("rank1/rank100 ratio %g too small for alpha=1.5", float64(rank1)/float64(rank100))
	}
}

func TestPopularityClasses(t *testing.T) {
	w := mustGenerate(t, testConfig())
	classCount := [4]int{}
	for _, p := range w.Pages {
		if p.Class < 0 || p.Class > 3 {
			t.Fatalf("page %d class %d outside [0,3]", p.ID, p.Class)
		}
		classCount[p.Class]++
		if p.Rank == 1 && p.Class != 0 {
			t.Errorf("rank-1 page in class %d, want 0", p.Class)
		}
	}
	populated := 0
	for _, n := range classCount {
		if n > 0 {
			populated++
		}
	}
	if classCount[0] == 0 || populated < 3 {
		t.Errorf("classes should span hot to cold: %v", classCount)
	}
	// Class is monotone in rank.
	byRank := make([]int, len(w.Pages)+1)
	for _, p := range w.Pages {
		byRank[p.Rank] = p.Class
	}
	for r := 2; r <= len(w.Pages); r++ {
		if byRank[r] < byRank[r-1] {
			t.Fatalf("class decreased with rank: rank %d class %d < rank %d class %d", r, byRank[r], r-1, byRank[r-1])
		}
	}
}

func TestFreshnessBias(t *testing.T) {
	// Most requests must land close to publication: the median request
	// age should be far below half the horizon.
	w := mustGenerate(t, testConfig())
	ages := make([]float64, 0, len(w.Requests))
	for _, r := range w.Requests {
		ages = append(ages, r.Time-w.Pages[r.Page].FirstPublish)
	}
	sort.Float64s(ages)
	med := stats.Quantile(ages, 0.5)
	if med > 24 {
		t.Errorf("median request age %g h; expected strong freshness bias (< 1 day)", med)
	}
}

func TestPerfectSubscriptionsEqualRequests(t *testing.T) {
	cfg := testConfig()
	cfg.SQ = 1
	w := mustGenerate(t, cfg)
	reqCount := make(map[[2]int]int32)
	for _, r := range w.Requests {
		reqCount[[2]int{int(r.Page), int(r.Server)}]++
	}
	for page := range w.Pages {
		for server := 0; server < cfg.Servers; server++ {
			want := reqCount[[2]int{page, server}]
			if got := w.Subscriptions[page][server]; got != want {
				t.Fatalf("SQ=1: subs(page=%d, server=%d) = %d, want %d", page, server, got, want)
			}
		}
	}
}

func TestImperfectSubscriptionsAtLeastRequests(t *testing.T) {
	for _, sq := range []float64{0.25, 0.5, 0.75} {
		cfg := testConfig()
		cfg.SQ = sq
		w := mustGenerate(t, cfg)
		reqCount := make(map[[2]int]int32)
		for _, r := range w.Requests {
			reqCount[[2]int{int(r.Page), int(r.Server)}]++
		}
		total := int64(0)
		falsePositives := 0
		for page := range w.Pages {
			for server := 0; server < cfg.Servers; server++ {
				p := reqCount[[2]int{page, server}]
				s := w.Subscriptions[page][server]
				if p > 0 && s < p {
					t.Fatalf("SQ=%g: subs %d below requests %d", sq, s, p)
				}
				if p == 0 && s > 0 {
					falsePositives++
				}
				total += int64(s)
			}
		}
		// Imperfect subscriptions must include false positives —
		// subscriptions at servers whose users never request the page —
		// otherwise push-time placement never mispredicts.
		if falsePositives == 0 {
			t.Errorf("SQ=%g: expected some false-positive subscriptions", sq)
		}
		// Lower SQ inflates subscriptions relative to requests.
		if total < int64(cfg.TotalRequests) {
			t.Errorf("SQ=%g: total subscriptions %d below total requests %d", sq, total, cfg.TotalRequests)
		}
	}
}

func TestSubscriptionInflationGrowsAsSQDrops(t *testing.T) {
	totals := make(map[float64]int64)
	for _, sq := range []float64{0.25, 0.75, 1.0} {
		cfg := testConfig()
		cfg.SQ = sq
		w := mustGenerate(t, cfg)
		totals[sq] = w.TotalSubscriptions()
	}
	if !(totals[0.25] > totals[0.75] && totals[0.75] > totals[1.0]) {
		t.Errorf("subscription totals should grow as SQ drops: %v", totals)
	}
}

func TestNotificationDrivenFrac(t *testing.T) {
	cfg := testConfig()
	cfg.NotificationDrivenFrac = 0.5
	w := mustGenerate(t, cfg)
	reqPairs, subPairs := 0, 0
	reqCount := make(map[[2]int]bool)
	for _, r := range w.Requests {
		reqCount[[2]int{int(r.Page), int(r.Server)}] = true
	}
	reqPairs = len(reqCount)
	for page := range w.Pages {
		for server := 0; server < cfg.Servers; server++ {
			if w.Subscriptions[page][server] > 0 {
				subPairs++
			}
		}
	}
	frac := float64(subPairs) / float64(reqPairs)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("notification-driven fraction %g, want ~0.5", frac)
	}
}

func TestUniqueBytesAndCapacities(t *testing.T) {
	cfg := testConfig()
	w := mustGenerate(t, cfg)
	unique := w.UniqueBytesPerServer()
	if len(unique) != cfg.Servers {
		t.Fatalf("unique bytes length %d, want %d", len(unique), cfg.Servers)
	}
	caps5, err := w.CacheCapacities(0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i := range caps5 {
		if unique[i] > 0 {
			want := int64(float64(unique[i]) * 0.05)
			if want < 1 {
				want = 1
			}
			if caps5[i] != want {
				t.Fatalf("server %d capacity %d, want %d", i, caps5[i], want)
			}
		}
	}
	if _, err := w.CacheCapacities(0); err == nil {
		t.Error("zero fraction should error")
	}
	if _, err := w.CacheCapacities(1.5); err == nil {
		t.Error("fraction above 1 should error")
	}
}

func TestServerPoolSizeScalesWithPopularity(t *testing.T) {
	cfg := testConfig()
	w := mustGenerate(t, cfg)
	servers := make(map[int]map[int32]bool)
	counts := make(map[int]int)
	for _, r := range w.Requests {
		page := int(r.Page)
		if servers[page] == nil {
			servers[page] = make(map[int32]bool)
		}
		servers[page][r.Server] = true
		counts[page]++
	}
	// The most popular page should be requested from more servers than a
	// mid-tail page.
	var hot, mid int
	for _, p := range w.Pages {
		if p.Rank == 1 {
			hot = p.ID
		}
		if p.Rank == 50 {
			mid = p.ID
		}
	}
	if len(servers[hot]) <= len(servers[mid]) {
		t.Errorf("hot page seen at %d servers, mid page at %d; pool should scale with popularity",
			len(servers[hot]), len(servers[mid]))
	}
}

func TestScaledConfig(t *testing.T) {
	cfg := ScaledConfig(TraceNEWS, 20)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	if cfg.DistinctPages != 300 {
		t.Errorf("scaled pages = %d, want 300", cfg.DistinctPages)
	}
	if ScaledConfig(TraceNEWS, 1) != DefaultConfig(TraceNEWS) {
		t.Error("factor 1 should return the default config")
	}
	// Extreme factors still validate.
	cfg = ScaledConfig(TraceALTERNATIVE, 100000)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("extreme scaled config invalid: %v", err)
	}
}

func TestSampleSQPrimeRanges(t *testing.T) {
	g := stats.NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := sampleSQPrime(1, g); v != 1 {
			t.Fatalf("SQ=1 must yield SQ'=1, got %g", v)
		}
		if v := sampleSQPrime(0.75, g); v < 0.5 || v > 1 {
			t.Fatalf("SQ=0.75: SQ'=%g outside [0.5, 1]", v)
		}
		if v := sampleSQPrime(0.25, g); v < minSQPrime || v > 0.5 {
			t.Fatalf("SQ=0.25: SQ'=%g outside [%g, 0.5]", v, minSQPrime)
		}
	}
}

func TestRequestCountMatchesMeanSQRoughly(t *testing.T) {
	// With SQ=0.75, E[SQ'] = 0.75, so total subscriptions should exceed
	// requests by roughly 1/0.72 (Jensen) — just check a sane band.
	cfg := testConfig()
	cfg.SQ = 0.75
	w := mustGenerate(t, cfg)
	ratio := float64(w.TotalSubscriptions()) / float64(cfg.TotalRequests)
	if ratio < 1.05 || ratio > 2.5 {
		t.Errorf("SQ=0.75 subscription inflation ratio %g outside plausible band", ratio)
	}
}

func TestSubscriptionObjectsMatchCounts(t *testing.T) {
	cfg := testConfig()
	cfg.DistinctPages = 40
	cfg.ModifiedPages = 10
	cfg.TotalPublished = 80
	cfg.TotalRequests = 500
	w := mustGenerate(t, cfg)
	objs := w.SubscriptionObjects()
	if int64(len(objs)) != w.TotalSubscriptions() {
		t.Fatalf("materialised %d objects, counts say %d", len(objs), w.TotalSubscriptions())
	}
	// Spot-check one page through the real matching engine.
	page := 0
	for p := range w.Pages {
		if w.Subscriptions[p] != nil {
			sum := int32(0)
			for _, n := range w.Subscriptions[p] {
				sum += n
			}
			if sum > 0 {
				page = p
				break
			}
		}
	}
	ev := PageEvent(page)
	if ev.Topics[0] != PageTopic(page) {
		t.Fatal("PageEvent topic mismatch")
	}
}

func TestHorizon(t *testing.T) {
	cfg := DefaultConfig(TraceNEWS)
	if h := cfg.Horizon(); math.Abs(h-168) > 1e-12 {
		t.Errorf("Horizon = %g, want 168", h)
	}
}
