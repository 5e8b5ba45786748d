package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// AdminServer exposes the process's observability surface over HTTP:
//
//	/metrics         registry snapshot as JSON (expvar-style); content
//	                 negotiated: Accept: application/openmetrics-text
//	                 serves OpenMetrics 1.0 with trace-ID exemplars,
//	                 Accept: text/plain serves the Prometheus text
//	                 format, and ?format=json|prometheus|openmetrics
//	                 overrides. Both text flavors include Go runtime
//	                 vitals (go_goroutines, go_heap_alloc_bytes, …).
//	/metrics?text=1  plain-text summary
//	/traces          retained span traces (recent + slowest + errored)
//	/traces?page=X   only the traces with a span attributed page=X
//	                 (publish, fetch, proxy push and request of page X)
//	/trace/{id}      one span trace rendered as a tree (?text=1 for an
//	                 indented plain-text view with per-stage durations)
//	/healthz         liveness: 200 once the process is up
//	/readyz          readiness: runs the registered health checks,
//	                 503 when any fails
//	/debug/pprof/    the standard pprof index (profile, heap, goroutine…)
//
// Additional surfaces (/fleet, /profiles) are mounted with Handle.
type AdminServer struct {
	ln    net.Listener
	srv   *http.Server
	mux   *http.ServeMux
	start time.Time

	mu     sync.Mutex
	checks map[string]func() error

	// Readiness flap tracking: lastReady is -1 before the first /readyz
	// evaluation, else 0/1; flaps counts ready<->not-ready transitions.
	lastReady atomic.Int32
	flaps     atomic.Int64
}

// AdminOption configures NewAdminServer beyond the registry.
type AdminOption func(*adminConfig)

type adminConfig struct {
	spans *SpanCollector
}

// WithSpans serves the collector's span traces on /traces and
// /trace/{id}.
func WithSpans(c *SpanCollector) AdminOption {
	return func(cfg *adminConfig) { cfg.spans = c }
}

// NewAdminServer starts the admin endpoint on addr (e.g.
// "127.0.0.1:6060"; use port 0 for an ephemeral port). reg may be nil;
// /metrics then serves empty data.
func NewAdminServer(addr string, reg *Registry, opts ...AdminOption) (*AdminServer, error) {
	var cfg adminConfig
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &AdminServer{
		ln:     ln,
		start:  time.Now(),
		checks: make(map[string]func() error),
	}
	s.lastReady.Store(-1)
	mux := http.NewServeMux()
	s.mux = mux
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		snap.AddRuntime()
		switch negotiateMetricsFormat(r) {
		case "summary":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = snap.WriteSummary(w)
		case "openmetrics":
			w.Header().Set("Content-Type", ContentTypeOpenMetrics)
			_ = snap.WriteOpenMetrics(w)
		case "prometheus":
			w.Header().Set("Content-Type", ContentTypePrometheus)
			_ = snap.WritePrometheus(w)
		default:
			writeJSON(w, snap)
		}
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		type summary struct {
			TraceID   TraceID       `json:"traceId"`
			Root      string        `json:"root"`
			Start     time.Time     `json:"start"`
			Duration  time.Duration `json:"durationNs"`
			Spans     int           `json:"spans"`
			Err       bool          `json:"err"`
			Truncated bool          `json:"truncated,omitempty"`
		}
		traces := cfg.spans.Traces()
		if page := r.URL.Query().Get("page"); page != "" {
			kept := traces[:0]
			for _, td := range traces {
				if td.HasAttr("page", page) {
					kept = append(kept, td)
				}
			}
			traces = kept
		}
		out := struct {
			Stats  CollectorStats `json:"stats"`
			Traces []summary      `json:"traces"`
		}{Stats: cfg.spans.Stats(), Traces: make([]summary, 0, len(traces))}
		for _, td := range traces {
			out.Traces = append(out.Traces, summary{
				TraceID: td.TraceID, Root: td.Root, Start: td.Start,
				Duration: td.Duration, Spans: len(td.Spans),
				Err: td.Err, Truncated: td.Truncated,
			})
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		var tid TraceID
		if err := tid.UnmarshalText([]byte(r.PathValue("id"))); err != nil {
			http.Error(w, "bad trace ID: "+err.Error(), http.StatusBadRequest)
			return
		}
		td, ok := cfg.spans.Trace(tid)
		if !ok {
			http.Error(w, "trace not retained", http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("text") != "" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = td.WriteTree(w)
			return
		}
		writeJSON(w, td)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"status": "ok",
			"uptime": time.Since(s.start).String(),
		})
	})
	mux.HandleFunc("/readyz", s.handleReady)
	// pprof must be mounted explicitly: the package's init only touches
	// http.DefaultServeMux, which this server does not use.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The listener is owned by this server; Serve only fails
			// after Close, so there is nobody to report to.
			_ = err
		}
	}()
	return s, nil
}

// negotiateMetricsFormat picks the /metrics representation: the
// explicit ?format= and legacy ?text=1 overrides win, then the Accept
// header (OpenMetrics preferred over plain text, matching the
// preference order Prometheus scrapers send), defaulting to JSON so
// existing scrapers — including the fleet aggregator — are unaffected.
func negotiateMetricsFormat(r *http.Request) string {
	if r.URL.Query().Get("text") != "" {
		return "summary"
	}
	switch f := r.URL.Query().Get("format"); f {
	case "json", "prometheus", "openmetrics":
		return f
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "application/openmetrics-text") {
		return "openmetrics"
	}
	if strings.Contains(accept, "text/plain") {
		return "prometheus"
	}
	return "json"
}

// writeJSON writes v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// RegisterHealthCheck adds (or replaces) a named readiness check
// evaluated by /readyz; a nil error means healthy. Components that come
// up after the admin endpoint (the broker's journal, the transport
// listener, an uplink) register themselves here.
func (s *AdminServer) RegisterHealthCheck(name string, check func() error) {
	s.mu.Lock()
	s.checks[name] = check
	s.mu.Unlock()
}

// handleReady runs every registered check and reports per-check status;
// 503 when any check fails.
func (s *AdminServer) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.checks))
	checks := make(map[string]func() error, len(s.checks))
	for name, fn := range s.checks {
		names = append(names, name)
		checks[name] = fn
	}
	s.mu.Unlock()
	sort.Strings(names)
	results := make(map[string]string, len(names))
	ready := true
	for _, name := range names {
		if err := checks[name](); err != nil {
			results[name] = err.Error()
			ready = false
		} else {
			results[name] = "ok"
		}
	}
	// Track ready<->not-ready transitions ("flaps"); a flapping node is
	// the readiness-side trigger for SLO-correlated profile capture.
	now := int32(0)
	if ready {
		now = 1
	}
	if prev := s.lastReady.Swap(now); prev >= 0 && prev != now {
		s.flaps.Add(1)
	}
	status := "ready"
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		status = "not ready"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"status": status, "checks": results})
}

// ReadyTransitions returns how many times /readyz has flipped between
// ready and not ready since startup — the readiness "flap" count
// consumed by the profile-capture trigger.
func (s *AdminServer) ReadyTransitions() int64 { return s.flaps.Load() }

// Handle mounts an additional handler on the admin mux (e.g. the fleet
// aggregator's /fleet endpoints or the profile ring's /profiles). Safe
// to call while the server is running — components that come up after
// the admin endpoint mount themselves here, mirroring
// RegisterHealthCheck.
func (s *AdminServer) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// Addr returns the server's listen address.
func (s *AdminServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *AdminServer) Close() error { return s.srv.Close() }
