package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
)

// traced runs a tiny two-span trace through the collector and returns
// its ID.
func traced(t *testing.T, c *SpanCollector, fail bool) TraceID {
	t.Helper()
	ctx := WithSpanCollector(context.Background(), c)
	ctx, root := StartSpan(ctx, "broker.publish")
	root.SetAttr("page", "p1")
	_, child := StartSpan(ctx, "broker.match")
	if fail {
		child.SetError(errors.New("no subscribers"))
	}
	child.End()
	tid := root.Context().TraceID
	root.End()
	return tid
}

func TestAdminServerSpanEndpoints(t *testing.T) {
	spans := NewSpanCollector(CollectorOptions{})
	tid := traced(t, spans, false)
	errTid := traced(t, spans, true)

	s, err := NewAdminServer("127.0.0.1:0", nil, WithSpans(spans))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := adminGet(t, base+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var listing struct {
		Stats  CollectorStats `json:"stats"`
		Traces []struct {
			TraceID TraceID `json:"traceId"`
			Root    string  `json:"root"`
			Spans   int     `json:"spans"`
			Err     bool    `json:"err"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("/traces not JSON: %v\n%s", err, body)
	}
	if len(listing.Traces) != 2 {
		t.Fatalf("/traces listed %d traces, want 2", len(listing.Traces))
	}
	if listing.Stats.TracesCompleted != 2 {
		t.Errorf("stats.TracesCompleted = %d", listing.Stats.TracesCompleted)
	}
	var sawErrored bool
	for _, tr := range listing.Traces {
		if tr.Root != "broker.publish" || tr.Spans != 2 {
			t.Errorf("summary %+v", tr)
		}
		if tr.TraceID == errTid && tr.Err {
			sawErrored = true
		}
	}
	if !sawErrored {
		t.Error("errored trace not flagged in /traces")
	}

	code, body = adminGet(t, base+"/trace/"+tid.String())
	if code != http.StatusOK {
		t.Fatalf("/trace/{id} status %d: %s", code, body)
	}
	var td TraceData
	if err := json.Unmarshal(body, &td); err != nil {
		t.Fatalf("/trace/{id} not JSON: %v", err)
	}
	if td.TraceID != tid || len(td.Spans) != 2 {
		t.Errorf("trace view %+v", td)
	}

	code, body = adminGet(t, base+"/trace/"+tid.String()+"?text=1")
	if code != http.StatusOK || !strings.Contains(string(body), "broker.match") {
		t.Errorf("/trace/{id}?text=1 status %d body %q", code, body)
	}

	code, _ = adminGet(t, base+"/trace/zzzz")
	if code != http.StatusBadRequest {
		t.Errorf("bad trace ID status %d, want 400", code)
	}
	code, _ = adminGet(t, base+"/trace/"+TraceID{9, 9}.String())
	if code != http.StatusNotFound {
		t.Errorf("unknown trace status %d, want 404", code)
	}

	// Only /trace/{id} is mounted: a bare /trace is not a route.
	code, _ = adminGet(t, base+"/trace")
	if code != http.StatusNotFound {
		t.Errorf("/trace status %d, want 404", code)
	}
}

func TestAdminServerHealthAndReadiness(t *testing.T) {
	s, err := NewAdminServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := adminGet(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("/healthz status %d body %s", code, body)
	}

	// No checks registered: trivially ready.
	code, _ = adminGet(t, base+"/readyz")
	if code != http.StatusOK {
		t.Fatalf("/readyz with no checks status %d", code)
	}

	// Late registration, the broker pattern: journal healthy, uplink down.
	s.RegisterHealthCheck("journal", func() error { return nil })
	s.RegisterHealthCheck("uplink", func() error { return errors.New("uplink hub:7070 disconnected") })
	code, body = adminGet(t, base+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with failing check status %d", code)
	}
	var rep struct {
		Status string            `json:"status"`
		Checks map[string]string `json:"checks"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("/readyz not JSON: %v\n%s", err, body)
	}
	if rep.Status != "not ready" || rep.Checks["journal"] != "ok" || !strings.Contains(rep.Checks["uplink"], "disconnected") {
		t.Errorf("readiness report %+v", rep)
	}

	// Replacing the failing check flips readiness back.
	s.RegisterHealthCheck("uplink", func() error { return nil })
	code, _ = adminGet(t, base+"/readyz")
	if code != http.StatusOK {
		t.Errorf("/readyz after recovery status %d", code)
	}
}

func TestAdminServerRegisteredCheckGatesFirstProbe(t *testing.T) {
	s, err := NewAdminServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RegisterHealthCheck("static", func() error { return errors.New("never ready") })
	code, _ := adminGet(t, "http://"+s.Addr()+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("registered check ignored: status %d", code)
	}
}
