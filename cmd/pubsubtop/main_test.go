package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pubsubcd/internal/telemetry"
	"pubsubcd/internal/telemetry/fleet"
)

func fixtureSnapshot() fleet.Snapshot {
	metrics := telemetry.Snapshot{
		Counters: map[string]int64{
			"broker.publishes":                           100,
			"broker.pushes":                              80,
			"broker.fetches":                             20,
			"broker.fetch_misses":                        5,
			`broker.publishes_by_topic{topic="news"}`:    60,
			`broker.publishes_by_topic{topic="sports"}`:  30,
			`broker.publishes_by_topic{topic="weather"}`: 10,
			`sim.strategy.hits{strategy="GD*"}`:          70,
			`sim.strategy.requests{strategy="GD*"}`:      100,
			`sim.strategy.hits{strategy="SG2"}`:          40,
			`sim.strategy.requests{strategy="SG2"}`:      80,
		},
		Gauges: map[string]int64{},
		Histograms: map[string]telemetry.HistogramSnapshot{
			// Two codec-labeled delivery series; bounds match so the
			// dashboard merges counts: 8 samples, p50 1ms, p99 10ms.
			`transport.client.delivery_latency_ns{codec="json"}`: {
				Count: 4, Sum: 5_000_000,
				Bounds: []int64{1_000_000, 10_000_000}, Counts: []int64{3, 1, 0},
			},
			`transport.client.delivery_latency_ns{codec="binary"}`: {
				Count: 4, Sum: 4_000_000,
				Bounds: []int64{1_000_000, 10_000_000}, Counts: []int64{3, 1, 0},
			},
		},
	}
	return fleet.Snapshot{
		At:      time.Unix(1700000000, 0),
		Targets: 2,
		UpCount: 1,
		Nodes: []fleet.Node{
			{Target: "http://127.0.0.1:7071", Up: true, Metrics: metrics, ScrapeNanos: 1_500_000},
			{Target: "http://127.0.0.1:7072", Up: false, Error: "connection refused"},
		},
		Merged:  metrics,
		Skipped: []string{"odd.histogram"},
	}
}

func fixtureSLO() fleet.SLOReport {
	rep := fleet.SLOReport{
		CounterBase: fleet.DefaultSLOBase,
		Target:      0.99,
		Hits:        95,
		Misses:      5,
		Attainment:  0.95,
	}
	rep.Window.Seconds = 60
	rep.Window.Misses = 5
	rep.Window.MissRate = 0.05
	rep.Window.BurnRate = 5
	return rep
}

func fixtureServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(fixtureSnapshot())
	})
	mux.HandleFunc("/fleet/slo", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(fixtureSLO())
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestOnceFrameAgainstFixture(t *testing.T) {
	srv := fixtureServer(t)
	var out strings.Builder
	if err := run([]string{"-fleet", srv.URL, "-once", "-k", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	frame := out.String()
	if strings.Contains(frame, "\x1b[") {
		t.Error("-once frame must not carry ANSI control codes")
	}
	for _, want := range []string{
		"fleet of 2 (1 up)",
		"publishes 100",
		"GD*", "0.7000",
		"SG2", "0.5000",
		"top 2 topics",
		"news", "sports",
		"delivery", "p50 1ms", "p99 10ms", "8 samples",
		"attainment 0.9500",
		"5.00x",
		"BURNING",
		"http://127.0.0.1:7072",
		"connection refused",
		"odd.histogram",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	// Only the top 2 of 3 topics render.
	if strings.Contains(frame, "weather") {
		t.Errorf("frame should omit the third topic with -k 2:\n%s", frame)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(nil, &strings.Builder{}); err == nil {
		t.Error("missing -fleet should fail")
	}
}

func TestOnceFailsWhenEndpointUnreachable(t *testing.T) {
	// A listener that is closed immediately: the port is known-dead.
	srv := httptest.NewServer(http.NotFoundHandler())
	addr := srv.URL
	srv.Close()
	var out strings.Builder
	err := run([]string{"-fleet", addr, "-once", "-timeout", "2s"}, &out)
	if err == nil {
		t.Fatalf("-once against dead endpoint succeeded, frame:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("error should name the endpoint as unreachable, got: %v", err)
	}
}

func TestOnceFailsOnNonFleetEndpoint(t *testing.T) {
	// Reachable server without fleet routes (node without -fleet-scrape).
	srv := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(srv.Close)
	err := run([]string{"-fleet", srv.URL, "-once"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "status 404") {
		t.Errorf("want a status 404 error naming the endpoint, got: %v", err)
	}
}

func TestOnceFailsOnEmptyFleet(t *testing.T) {
	// /fleet answers, but the aggregation point scrapes nothing: the
	// one-shot frame would be empty, so it must fail instead.
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(fleet.Snapshot{})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	err := run([]string{"-fleet", srv.URL, "-once"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "no scrape targets") {
		t.Errorf("want a no-scrape-targets error, got: %v", err)
	}
}

func TestDeliveryRowAbsentWithoutSamples(t *testing.T) {
	// Fleets of pre-PublishedAt peers export no delivery histograms;
	// the row must vanish rather than render zeros.
	snap := fleet.Snapshot{Merged: telemetry.Snapshot{
		Histograms: map[string]telemetry.HistogramSnapshot{
			"broker.stage_ns.ingress_to_match": {Count: 5, Bounds: []int64{1000}, Counts: []int64{5, 0}},
		},
	}}
	if row := deliveryRow(snap); row != "" {
		t.Errorf("deliveryRow without delivery series = %q, want empty", row)
	}
}

func TestTopTopics(t *testing.T) {
	counters := map[string]int64{
		`broker.publishes_by_topic{topic="a"}`: 5,
		`broker.publishes_by_topic{topic="b"}`: 9,
		`broker.publishes_by_topic{topic="c"}`: 5,
		"broker.publishes":                     99, // unlabeled: ignored
	}
	got := topTopics(counters, 2)
	if len(got) != 2 || got[0].name != "b" || got[1].name != "a" {
		t.Errorf("topTopics = %+v, want b then a (count desc, name asc)", got)
	}
}

func TestHitRatioByStrategy(t *testing.T) {
	counters := map[string]int64{
		`sim.strategy.hits{strategy="X"}`:     3,
		`sim.strategy.requests{strategy="X"}`: 4,
		`sim.strategy.requests{strategy="Y"}`: 0,  // zero requests: dropped
		"sim.strategy.hits":                   99, // no strategy label: ignored
	}
	got := hitRatioByStrategy(counters)
	if len(got) != 1 || got[0].name != "X" || got[0].ratio != 0.75 {
		t.Errorf("hitRatioByStrategy = %+v", got)
	}
}

func TestRatesDeltas(t *testing.T) {
	d := &dashboard{}
	s1 := fleet.Snapshot{Merged: telemetry.Snapshot{Counters: map[string]int64{"c": 10}}}
	if got := d.rates(s1, time.Unix(100, 0)); got != nil {
		t.Errorf("first frame rates = %v, want nil", got)
	}
	s2 := fleet.Snapshot{Merged: telemetry.Snapshot{Counters: map[string]int64{"c": 30}}}
	got := d.rates(s2, time.Unix(102, 0))
	if got["c"] != 10 {
		t.Errorf("rate = %g/s, want 10 (delta 20 over 2s)", got["c"])
	}
}

func TestBar(t *testing.T) {
	if got := bar(0.5, 10); got != "["+strings.Repeat("█", 5)+strings.Repeat("·", 5)+"]" {
		t.Errorf("bar(0.5) = %q", got)
	}
	if got := bar(-1, 4); got != "[····]" {
		t.Errorf("bar(-1) = %q", got)
	}
	if got := bar(2, 4); got != "[████]" {
		t.Errorf("bar(2) = %q", got)
	}
}
