package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pubsubcd/internal/broker"
)

// TestMetricsEndpoint boots the command with -metrics-addr, drives real
// traffic through the TCP transport, and asserts the admin endpoint
// serves live transport + match counters, latency histograms, the span
// traces of one page, and pprof.
func TestMetricsEndpoint(t *testing.T) {
	l := launch(t, []string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"})
	defer func() {
		if err := l.shutdown(); err != nil {
			t.Errorf("run returned error: %v", err)
		}
	}()
	base := strings.TrimSuffix(l.attr(t, "admin endpoint up", "metrics"), "/metrics")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	client, err := broker.Dial(ctx, l.attr(t, "broker listening", "addr"), broker.WithNotify(func(broker.Notification) {}))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Subscribe(ctx, 1, []string{"news"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Publish(ctx, broker.Content{ID: "p1", Topics: []string{"news"}, Body: []byte("body")}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Fetch(ctx, "p1"); err != nil {
		t.Fatal(err)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}

	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	for name, want := range map[string]int64{
		"broker.publishes":              1,
		"broker.subscribes":             1,
		"broker.fetches":                1,
		"transport.server.conns_opened": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if snap.Counters["transport.server.bytes_in"] == 0 {
		t.Error("transport bytes_in stayed zero")
	}
	for _, h := range []string{"broker.match_ns", "transport.server.handle_ns.publish"} {
		if snap.Histograms[h].Count == 0 {
			t.Errorf("histogram %s saw no samples", h)
		}
	}

	var listing struct {
		Traces []struct {
			Root string `json:"root"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(get("/traces?page=p1"), &listing); err != nil {
		t.Fatalf("traces JSON: %v", err)
	}
	roots := make(map[string]bool)
	for _, tr := range listing.Traces {
		roots[tr.Root] = true
	}
	if len(roots) != 2 || !roots["transport.server.publish"] || !roots["transport.server.fetch"] {
		t.Errorf("traces for p1 have roots %v, want the publish and the fetch", roots)
	}

	if body := get("/debug/pprof/"); len(body) == 0 {
		t.Error("pprof index is empty")
	}
}
