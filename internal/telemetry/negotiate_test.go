package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// getMetrics fetches /metrics with the given Accept header and query
// string, returning the body and content type.
func getMetrics(t *testing.T, addr, accept, query string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/metrics"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestMetricsContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("neg.count").Add(9)
	srv, err := NewAdminServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()

	// Default: JSON, so existing scrapers (the fleet aggregator
	// included) see the historical shape.
	body, ct := getMetrics(t, addr, "", "")
	if !strings.Contains(ct, "application/json") {
		t.Errorf("default content type = %q, want JSON", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("default body is not a JSON snapshot: %v", err)
	}
	if snap.Counters["neg.count"] != 9 {
		t.Errorf("JSON counters = %v", snap.Counters)
	}

	// Accept: openmetrics wins over text/plain, mirroring Prometheus'
	// own preference order.
	body, ct = getMetrics(t, addr, "application/openmetrics-text; version=1.0.0, text/plain;q=0.5", "")
	if ct != ContentTypeOpenMetrics {
		t.Errorf("openmetrics content type = %q", ct)
	}
	if !strings.Contains(body, "neg_count_total 9") || !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("openmetrics body:\n%s", body)
	}

	// Accept: text/plain serves the classic Prometheus format.
	body, ct = getMetrics(t, addr, "text/plain", "")
	if ct != ContentTypePrometheus {
		t.Errorf("prometheus content type = %q", ct)
	}
	if !strings.Contains(body, "neg_count 9") || strings.Contains(body, "# EOF") {
		t.Errorf("prometheus body:\n%s", body)
	}

	// ?format= overrides the Accept header.
	body, _ = getMetrics(t, addr, "application/openmetrics-text", "?format=json")
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Errorf("?format=json did not override Accept: %v", err)
	}
	body, ct = getMetrics(t, addr, "", "?format=openmetrics")
	if ct != ContentTypeOpenMetrics || !strings.Contains(body, "# EOF") {
		t.Errorf("?format=openmetrics: ct=%q body:\n%s", ct, body)
	}

	// Legacy ?text=1 summary still works.
	body, ct = getMetrics(t, addr, "", "?text=1")
	if !strings.Contains(ct, "text/plain") || !strings.Contains(body, "neg.count") {
		t.Errorf("?text=1: ct=%q body:\n%s", ct, body)
	}

	// Both text flavors carry runtime vitals.
	body, _ = getMetrics(t, addr, "text/plain", "")
	if !strings.Contains(body, "go_goroutines") {
		t.Error("prometheus body missing go_goroutines")
	}
}

func TestAdminHandleAfterStart(t *testing.T) {
	srv, err := NewAdminServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/extra", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "mounted")
	}))
	resp, err := http.Get("http://" + srv.Addr() + "/extra")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "mounted" {
		t.Errorf("late-mounted handler body = %q", body)
	}
}

func TestReadyTransitions(t *testing.T) {
	srv, err := NewAdminServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	healthy := true
	srv.RegisterHealthCheck("flip", func() error {
		if healthy {
			return nil
		}
		return io.ErrUnexpectedEOF
	})
	hit := func() {
		resp, err := http.Get("http://" + srv.Addr() + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	hit() // ready: baseline, no flap
	if got := srv.ReadyTransitions(); got != 0 {
		t.Fatalf("flaps after first probe = %d, want 0", got)
	}
	healthy = false
	hit() // ready -> not ready
	healthy = true
	hit() // not ready -> ready
	hit() // steady: no flap
	if got := srv.ReadyTransitions(); got != 2 {
		t.Errorf("flaps = %d, want 2", got)
	}
}
