package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/cluster"
	"pubsubcd/internal/telemetry"
)

// startSoakCluster brings up a 3-node in-process cluster with default
// heartbeats plus one admin metrics endpoint per node, and returns the
// broker addresses and the metrics scrape targets.
func startSoakCluster(t *testing.T) (addrs, scrape []string) {
	t.Helper()
	const count = 3
	peers := map[string]string{}
	lns := map[string]net.Listener{}
	for i := 0; i < count; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		id := fmt.Sprintf("n%d", i)
		peers[id] = ln.Addr().String()
		lns[id] = ln
	}
	nodes := make([]*cluster.Node, count)
	for i := 0; i < count; i++ {
		id := fmt.Sprintf("n%d", i)
		reg := telemetry.NewRegistry()
		n, err := cluster.Start(cluster.Config{
			NodeID:     id,
			Addr:       peers[id],
			Listener:   lns[id],
			Peers:      peers,
			Partitions: 8,
			Registry:   reg,
		})
		if err != nil {
			t.Fatalf("start %s: %v", id, err)
		}
		nodes[i] = n
		// Kill asynchronously, don't Close: graceful shutdown would
		// unwind every subscription the soak left behind with
		// serialized cross-node RPCs against already-dying peers —
		// minutes of drain for a throwaway cluster. The goroutine dies
		// with the test process.
		t.Cleanup(func() { go n.Kill() })
		admin, err := telemetry.NewAdminServer("127.0.0.1:0", reg)
		if err != nil {
			t.Fatalf("admin %s: %v", id, err)
		}
		t.Cleanup(func() { _ = admin.Close() })
		addrs = append(addrs, peers[id])
		scrape = append(scrape, admin.Addr())
	}
	// Wait for membership to converge so early subscribes don't race
	// ring installation.
	deadline := time.Now().Add(15 * time.Second)
	for {
		ok := true
		for _, n := range nodes {
			if len(n.Ring().Members()) != count {
				ok = false
				break
			}
		}
		if ok {
			return addrs, scrape
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster did not converge")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSoakParityAgainstCluster is the end-to-end closed loop: replay a
// tiny seeded workload against a live 3-node cluster for two catalog
// strategies, reconcile against the simulator on the same seed, and
// require parity within tolerance plus wire-level latency samples.
// GD* is access-only; SUB places at push time, so its offers run
// through the arrival gate.
func TestSoakParityAgainstCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e soak; skipped in -short")
	}
	addrs, scrape := startSoakCluster(t)

	dir := t.TempDir()
	out := filepath.Join(dir, "parity.json")
	benchOut := filepath.Join(dir, "bench.json")
	cfg := config{
		addrs:       strings.Join(addrs, ","),
		scrape:      strings.Join(scrape, ","),
		metricsAddr: "127.0.0.1:0",
		strategies:  "GD*,SUB",
		trace:       "NEWS",
		scale:       300,
		seed:        1,
		capacity:    0.05,
		beta:        2,
		duration:    2 * time.Second,
		warmup:      300 * time.Millisecond,
		subConns:    4,
		pushWait:    5 * time.Second,
		maxBody:     1024,
		hitTol:      0.05,
		trafficTol:  0.10,
		out:         out,
		benchOut:    benchOut,
	}

	report, err := run(context.Background(), cfg, tsWriter{t})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(report.Strategies) != 2 {
		t.Fatalf("got %d strategy sections, want 2", len(report.Strategies))
	}
	for _, s := range report.Strategies {
		if s.LiveRequests == 0 {
			t.Errorf("%s: no live requests replayed", s.Strategy)
		}
		if s.PushesMissed > 0 {
			t.Errorf("%s: %d pushes missed on a healthy loopback cluster", s.Strategy, s.PushesMissed)
		}
		// Live and sim share one accounting path, so with every push
		// delivered the outcomes must agree exactly, not just within
		// tolerance.
		if s.PushesMissed == 0 && (s.HitRatioDelta != 0 || s.TrafficDelta != 0) {
			t.Errorf("%s: live diverged from sim with nothing lost on the wire: hit delta %g, traffic delta %g",
				s.Strategy, s.HitRatioDelta, s.TrafficDelta)
		}
		if !s.HitOK || !s.TrafficOK {
			t.Errorf("%s: parity breach: hit delta %.4f (tol %.2f), traffic delta %.4f (tol %.2f)",
				s.Strategy, s.HitRatioDelta, cfg.hitTol, s.TrafficDelta, cfg.trafficTol)
		}
	}
	report.gate()
	if !report.Pass {
		t.Error("report did not pass its own gate")
	}
	if report.Fleet.Up != report.Fleet.Targets {
		t.Errorf("fleet scrape: %d/%d targets up", report.Fleet.Up, report.Fleet.Targets)
	}
	if report.Fleet.DeliverySamples == 0 {
		t.Error("no wire-level delivery-latency samples observed")
	}
	if report.Fleet.DeliveryP99NS <= 0 {
		t.Errorf("delivery p99 = %d, want > 0", report.Fleet.DeliveryP99NS)
	}
	for _, stage := range stageHistograms {
		if _, ok := report.Fleet.StageP99NS[stage]; !ok {
			t.Errorf("stage timer %s missing from fleet scrape", stage)
		}
	}

	// The artifacts round-trip as JSON.
	var onDisk Report
	if err := writeJSONFile(out, report); err != nil {
		t.Fatalf("write report: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if onDisk.Fleet.DeliveryP99NS != report.Fleet.DeliveryP99NS {
		t.Errorf("round-trip p99 = %d, want %d", onDisk.Fleet.DeliveryP99NS, report.Fleet.DeliveryP99NS)
	}
	bench := report.bench()
	if len(bench.Strategies) != 2 {
		t.Fatalf("bench block has %d strategies, want 2", len(bench.Strategies))
	}

	// The text rendering mentions each strategy and the verdict.
	var sb strings.Builder
	report.WriteText(&sb)
	t.Logf("parity report:\n%s", sb.String())
	for _, want := range []string{"GD*", "SUB", "PASS", "delivery latency"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, sb.String())
		}
	}
}

// TestRealMainFlagError pins the setup-error exit code.
func TestRealMainFlagError(t *testing.T) {
	var out, errw strings.Builder
	if code := realMain([]string{"-bogus-flag"}, &out, &errw); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestRealMainBadStrategy pins strategy validation.
func TestRealMainBadStrategy(t *testing.T) {
	var out, errw strings.Builder
	code := realMain([]string{"-strategies", "NOPE", "-duration", "1ms"}, &out, &errw)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, errw.String())
	}
}

type tsWriter struct{ t *testing.T }

func (w tsWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s %s", time.Now().Format("15:04:05.000"), strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestDialClientRetriesSeveredNegotiation checks that under chaos a
// harness dial whose codec negotiation is severed, before the
// connection carries any state, is retried.
func TestDialClientRetriesSeveredNegotiation(t *testing.T) {
	srv, err := broker.NewServer(broker.New(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	calls := 0
	o := replayOptions{dial: func(ctx context.Context, addr string) (net.Conn, error) {
		calls++
		if calls < dialAttempts {
			local, remote := net.Pipe()
			_ = remote.Close() // the hello write fails
			return local, nil
		}
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}}
	c, err := o.dialClient(context.Background(), srv.Addr(), []broker.ClientOption{broker.WithDialFunc(o.dial)})
	if err != nil {
		t.Fatalf("dial after %d severed attempts: %v", dialAttempts-1, err)
	}
	c.Close()
	if calls != dialAttempts {
		t.Errorf("dialed %d times, want %d", calls, dialAttempts)
	}
}
