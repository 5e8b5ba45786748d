package broker

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"pubsubcd/internal/match"
	"pubsubcd/internal/telemetry"
	"pubsubcd/internal/telemetry/fleet"
)

// fleetNode is one broker + admin endpoint of the e2e fleet.
type fleetNode struct {
	broker *Broker
	reg    *telemetry.Registry
	spans  *telemetry.SpanCollector
	admin  *telemetry.AdminServer
}

func newFleetNode(t *testing.T) *fleetNode {
	t.Helper()
	n := &fleetNode{
		broker: New(),
		reg:    telemetry.NewRegistry(),
		spans:  telemetry.NewSpanCollector(telemetry.CollectorOptions{}),
	}
	n.broker.EnableTelemetry(n.reg)
	admin, err := telemetry.NewAdminServer("127.0.0.1:0", n.reg, telemetry.WithSpans(n.spans))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { admin.Close() })
	n.admin = admin
	return n
}

// TestFleetAcrossFederatedBrokers runs the whole observability plane
// over a real 3-node federation: a hub behind the TCP transport and two
// leaves bridged in with RemoteLinks. It asserts the ISSUE's acceptance
// invariants — the fleet-merged publish counter equals the sum of the
// per-node counters read individually, an OpenMetrics exemplar scraped
// off the hub resolves to a live /trace/{id}, and an induced SLO burn
// automatically captures at least one pprof profile listed on
// /profiles.
func TestFleetAcrossFederatedBrokers(t *testing.T) {
	hub := newFleetNode(t)
	leaves := []*fleetNode{newFleetNode(t), newFleetNode(t)}

	srv, err := NewServer(hub.broker, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dialCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, leaf := range leaves {
		// Each leaf needs a local subscriber so republished pages have a
		// matching interest.
		if _, err := leaf.broker.Subscribe(match.Subscription{Proxy: 1, Topics: []string{"news"}},
			NotifierFunc(func(Notification) {})); err != nil {
			t.Fatal(err)
		}
		link, err := NewRemoteLink(dialCtx, leaf.broker, srv.Addr(), []string{"news"}, nil)
		if err != nil {
			t.Fatalf("leaf %d link: %v", i, err)
		}
		defer link.Close()
	}

	// Publish through the hub under a collected span so the latency
	// histogram records a trace-ID exemplar.
	const pages = 12
	ctx := telemetry.WithSpanCollector(context.Background(), hub.spans)
	ctx, root := telemetry.StartSpan(ctx, "e2e.publish")
	for i := 0; i < pages; i++ {
		if _, err := hub.broker.PublishContext(ctx, Content{
			ID: fmt.Sprintf("page-%d", i), Topics: []string{"news"}, Body: []byte("body"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	root.End()

	// The bridges republish asynchronously; wait for both leaves.
	deadline := time.Now().Add(5 * time.Second)
	for _, leaf := range leaves {
		for leaf.reg.Counter("broker.publishes").Value() < pages {
			if time.Now().After(deadline) {
				t.Fatalf("leaf republishes stalled at %d/%d",
					leaf.reg.Counter("broker.publishes").Value(), pages)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	nodes := []*fleetNode{hub, leaves[0], leaves[1]}
	targets := make([]string, len(nodes))
	for i, n := range nodes {
		targets[i] = n.admin.Addr()
	}

	// Fleet merge: the summed counter must equal the per-node totals
	// fetched individually from each admin endpoint.
	scraper, err := fleet.New(targets, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := scraper.ScrapeOnce(context.Background())
	if snap.UpCount != 3 {
		t.Fatalf("fleet sees %d/3 nodes up: %+v", snap.UpCount, snap.Nodes)
	}
	var perNodeSum int64
	for _, addr := range targets {
		var ns telemetry.Snapshot
		getJSON(t, "http://"+addr+"/metrics?format=json", &ns)
		perNodeSum += ns.Counters["broker.publishes"]
	}
	merged := snap.Merged.Counters["broker.publishes"]
	if merged != perNodeSum || merged != 3*pages {
		t.Errorf("merged publishes = %d, per-node sum = %d, want both %d",
			merged, perNodeSum, 3*pages)
	}
	// The labeled per-topic breakdown survives the merge.
	if got := snap.Merged.Counters[`broker.publishes_by_topic{topic="news"}`]; got != 3*pages {
		t.Errorf("merged per-topic publishes = %d, want %d", got, 3*pages)
	}

	// Exemplar → trace: scrape the hub's OpenMetrics text, pull a
	// trace_id exemplar off a histogram bucket, and resolve it against
	// the same node's /trace/{id}.
	hubURL := "http://" + hub.admin.Addr()
	resp, err := http.Get(hubURL + "/metrics?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	m := regexp.MustCompile(`trace_id="([0-9a-f]{32})"`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("no exemplar in hub OpenMetrics exposition:\n%s", body)
	}
	traceResp, err := http.Get(hubURL + "/trace/" + m[1])
	if err != nil {
		t.Fatal(err)
	}
	traceBody := readBody(t, traceResp)
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("exemplar trace %s did not resolve: %d %s", m[1], traceResp.StatusCode, traceBody)
	}
	if !strings.Contains(traceBody, m[1]) {
		t.Errorf("trace body does not echo trace ID %s", m[1])
	}

	// SLO burn → profile capture: arm the trigger on the hub, then make
	// every publish miss an impossible 1ns budget.
	trigger, err := telemetry.NewProfileTrigger(telemetry.ProfileConfig{
		Dir:         t.TempDir(),
		CPUDuration: 10 * time.Millisecond,
		Interval:    10 * time.Millisecond,
		Cooldown:    time.Millisecond,
		MinEvents:   10,
		Hits:        hub.reg.Counter("broker.slo.publish_to_placement.hit").Value,
		Misses:      hub.reg.Counter("broker.slo.publish_to_placement.miss").Value,
		TraceHint:   telemetry.TraceHintFromCollector(hub.spans),
	}, hub.reg)
	if err != nil {
		t.Fatal(err)
	}
	trigger.Start()
	defer trigger.Close()
	hub.admin.Handle("/profiles", trigger.Handler())
	hub.admin.Handle("/profiles/", trigger.Handler())

	time.Sleep(30 * time.Millisecond) // let the first tick prime the window
	hub.broker.SetPublishSLO(time.Nanosecond)
	for i := 0; i < 20; i++ {
		if _, err := hub.broker.Publish(Content{
			ID: fmt.Sprintf("burn-%d", i), Topics: []string{"news"}, Body: []byte("x"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var listing struct {
		Profiles []telemetry.CapturedProfile `json:"profiles"`
	}
	for {
		getJSON(t, hubURL+"/profiles", &listing)
		if len(listing.Profiles) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SLO burn did not capture a profile within the deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, p := range listing.Profiles {
		if !strings.HasPrefix(p.Reason, "slo-miss-rate-") {
			t.Errorf("profile reason = %q, want slo-miss-rate-*", p.Reason)
		}
	}
	// The capture file itself is servable.
	fileResp, err := http.Get(hubURL + "/profiles/" + listing.Profiles[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	fileResp.Body.Close()
	if fileResp.StatusCode != http.StatusOK {
		t.Errorf("GET captured profile = %d", fileResp.StatusCode)
	}

	// The fleet SLO report sees the burn.
	rep := scraperSLO(t, scraper)
	if rep.Misses < 20 {
		t.Errorf("fleet SLO misses = %d, want >= 20", rep.Misses)
	}
	if rep.Attainment >= 1 {
		t.Errorf("fleet attainment = %g, want < 1 after the burn", rep.Attainment)
	}
}

func scraperSLO(t *testing.T, s *fleet.Scraper) fleet.SLOReport {
	t.Helper()
	s.ScrapeOnce(context.Background())
	return s.SLO()
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
