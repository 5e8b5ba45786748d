package experiments

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"pubsubcd/internal/telemetry"
	"pubsubcd/internal/workload"
)

// TestBestBetaSingleFlight pins the fix for the duplicate-sweep race:
// concurrent BestBeta callers for the same (algo, trace, capacity) must
// share ONE 7-point β sweep instead of each running their own. The
// telemetry registry counts every simulated request, so a duplicated
// sweep would exactly double the total.
func TestBestBetaSingleFlight(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := New(Config{Scale: 200, Seed: 1, TopologySeed: 7, Telemetry: reg, Parallelism: 4})
	w, err := h.Workload(workload.TraceNEWS, 1)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 6
	betas := make([]float64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := h.BestBeta("GD*", workload.TraceNEWS, 0.05)
			if err != nil {
				t.Error(err)
				return
			}
			betas[i] = b
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if betas[i] != betas[0] {
			t.Fatalf("concurrent BestBeta calls disagreed: %g vs %g", betas[i], betas[0])
		}
	}
	want := int64(len(BetaGrid)) * int64(len(w.Requests))
	if got := reg.Snapshot().Counters["sim.requests"]; got != want {
		t.Errorf("sim.requests = %d, want %d (exactly one %d-point sweep)", got, want, len(BetaGrid))
	}
}

// TestBestBetaMatchesSweepCurve asserts BestBeta returns the first
// maximum of the shared curve — the sequential sweep's tie-breaking.
func TestBestBetaMatchesSweepCurve(t *testing.T) {
	h := New(Config{Scale: 200, Seed: 1, TopologySeed: 7, Parallelism: 4})
	beta, curve, err := h.sweepBeta("GD*", workload.TraceNEWS, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(BetaGrid) {
		t.Fatalf("curve has %d points, want %d", len(curve), len(BetaGrid))
	}
	bestBeta, bestH := BetaGrid[0], -1.0
	for i, hr := range curve {
		if hr > bestH {
			bestH = hr
			bestBeta = BetaGrid[i]
		}
	}
	if beta != bestBeta {
		t.Errorf("BestBeta picked %g, curve argmax is %g", beta, bestBeta)
	}
	got, err := h.BestBeta("DC-LAP", workload.TraceNEWS, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got != beta {
		t.Errorf("DC-LAP inherited β %g, want GD*'s %g", got, beta)
	}
}

// TestParallelSchedulerDeterministicOutput renders the same experiments
// at parallelism 1 and 8 and requires byte-identical text output — the
// scheduler may only change wall-clock time, never results or ordering.
func TestParallelSchedulerDeterministicOutput(t *testing.T) {
	render := func(parallelism int) string {
		h := New(Config{Scale: 200, Seed: 1, TopologySeed: 7, Parallelism: parallelism})
		fig3, err := Fig3(h)
		if err != nil {
			t.Fatal(err)
		}
		table2, err := Table2(h)
		if err != nil {
			t.Fatal(err)
		}
		fig7, err := Fig7(h)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, block := range []interface{ WriteText(io.Writer) error }{fig3, table2, fig7[0], fig7[1]} {
			if err := block.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Errorf("parallel rendering diverged from sequential:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

// TestWorkloadSingleFlight checks concurrent Workload calls return the
// same cached instance.
func TestWorkloadSingleFlight(t *testing.T) {
	h := New(Config{Scale: 200, Seed: 1, TopologySeed: 7, Parallelism: 4})
	const callers = 8
	ws := make([]*workload.Workload, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := h.Workload(workload.TraceNEWS, 1)
			if err != nil {
				t.Error(err)
				return
			}
			ws[i] = w
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if ws[i] != ws[0] {
			t.Fatal("concurrent Workload calls produced distinct instances")
		}
	}
}
