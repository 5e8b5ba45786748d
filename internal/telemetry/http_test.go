package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func adminGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestAdminServerMetricsAndTrace(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("broker.publishes").Add(42)
	reg.Histogram("broker.match_ns", LatencyBuckets()).Observe(1500)

	// Three traces: page-1 is attributed on the root span of one trace
	// and on a child span of another; page-2 on a third.
	spans := NewSpanCollector(CollectorOptions{})
	pageTrace := func(root, child, page string, onChild bool) TraceID {
		ctx, rsp := StartSpan(WithSpanCollector(context.Background(), spans), root)
		_, csp := StartSpan(ctx, child)
		if onChild {
			csp.SetAttr("page", page)
		} else {
			rsp.SetAttr("page", page)
		}
		csp.End()
		rsp.End()
		return rsp.Context().TraceID
	}
	published := pageTrace("broker.publish", "broker.match", "page-1", false)
	pushed := pageTrace("transport.client.notify", "proxy.push", "page-1", true)
	pageTrace("broker.publish", "broker.match", "page-2", false)

	s, err := NewAdminServer("127.0.0.1:0", reg, WithSpans(spans))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := adminGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["broker.publishes"] != 42 {
		t.Errorf("metrics counter = %d, want 42", snap.Counters["broker.publishes"])
	}
	if snap.Histograms["broker.match_ns"].Count != 1 {
		t.Errorf("metrics histogram count = %d", snap.Histograms["broker.match_ns"].Count)
	}

	code, body = adminGet(t, base+"/metrics?text=1")
	if code != http.StatusOK || !strings.Contains(string(body), "broker.publishes") {
		t.Errorf("/metrics?text=1 status %d body %q", code, body)
	}

	listed := func(query string) map[TraceID]bool {
		t.Helper()
		code, body := adminGet(t, base+"/traces"+query)
		if code != http.StatusOK {
			t.Fatalf("/traces%s status %d", query, code)
		}
		var listing struct {
			Traces []struct {
				TraceID TraceID `json:"traceId"`
			} `json:"traces"`
		}
		if err := json.Unmarshal(body, &listing); err != nil {
			t.Fatalf("/traces%s not JSON: %v", query, err)
		}
		ids := make(map[TraceID]bool)
		for _, tr := range listing.Traces {
			ids[tr.TraceID] = true
		}
		return ids
	}
	if got := listed(""); len(got) != 3 {
		t.Errorf("/traces listed %d traces, want 3", len(got))
	}
	if got := listed("?page=page-1"); len(got) != 2 || !got[published] || !got[pushed] {
		t.Errorf("/traces?page=page-1 = %v, want exactly the publish and push traces", got)
	}
	if got := listed("?page=page-9"); len(got) != 0 {
		t.Errorf("/traces?page=page-9 = %v, want none", got)
	}
}

func TestAdminServerPprof(t *testing.T) {
	s, err := NewAdminServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()
	code, body := adminGet(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	code, _ = adminGet(t, base+"/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK {
		t.Errorf("goroutine profile status %d", code)
	}
	// Endpoints without a registry or span collector still answer.
	code, _ = adminGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Errorf("/metrics with nil registry status %d", code)
	}
	code, _ = adminGet(t, base+"/traces?page=p1")
	if code != http.StatusOK {
		t.Errorf("/traces without a collector status %d", code)
	}
}

func TestAdminServerBadAddr(t *testing.T) {
	if _, err := NewAdminServer("256.256.256.256:1", nil); err == nil {
		t.Error("bad address should error")
	}
}
