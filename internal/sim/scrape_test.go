package sim

import (
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"pubsubcd/internal/core"
	"pubsubcd/internal/telemetry"
	"pubsubcd/internal/workload"
)

// TestConcurrentScrapeDuringRun drives the admin endpoint — metrics,
// span traces, health — from several goroutines while a parallel
// simulation publishes into the same registry and collector. Run under
// -race this pins down the observability surface's thread safety.
func TestConcurrentScrapeDuringRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanCollector(telemetry.CollectorOptions{})
	admin, err := telemetry.NewAdminServer("127.0.0.1:0", reg, telemetry.WithSpans(spans))
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	admin.RegisterHealthCheck("sim", func() error { return nil })
	base := "http://" + admin.Addr()

	w := testWorkload(t, workload.TraceNEWS, 1)
	f, err := core.Lookup("GD*")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			if _, err := Run(w, f, Options{
				CapacityFraction: 0.05, Beta: 2, Telemetry: reg, Spans: spans, Parallelism: 4,
			}); err != nil {
				runErr = err
				return
			}
		}
	}()

	paths := []string{"/metrics", "/metrics?text=1", "/traces", "/healthz", "/readyz"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				url := base + paths[(g+i)%len(paths)]
				resp, err := client.Get(url)
				if err != nil {
					t.Errorf("GET %s: %v", url, err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("read %s: %v", url, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	<-done
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}

	// The runs produced retained traces; every one must be servable by
	// ID, concurrently.
	traces := spans.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces retained after traced runs")
	}
	var tg sync.WaitGroup
	for i, td := range traces {
		tg.Add(1)
		go func(i int, tid string) {
			defer tg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for _, suffix := range []string{"", "?text=1"} {
				resp, err := client.Get(base + "/trace/" + tid + suffix)
				if err != nil {
					t.Errorf("GET /trace/%s%s: %v", tid, suffix, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/trace/%s%s status %d", tid, suffix, resp.StatusCode)
				}
			}
		}(i, td.TraceID.String())
	}
	tg.Wait()

	// Each traced run is one sim.run root plus one sim.shard per server.
	for _, td := range traces {
		if td.Root != "sim.run" {
			t.Errorf("trace root = %q, want sim.run", td.Root)
		}
		if want := w.Config.Servers + 1; len(td.Spans) != want {
			t.Errorf("trace has %d spans, want %d", len(td.Spans), want)
		}
	}
}
