package sim

import (
	"reflect"
	"sync"
	"testing"

	"pubsubcd/internal/core"
	"pubsubcd/internal/telemetry"
	"pubsubcd/internal/workload"
)

func determinismWorkload(t *testing.T, trace workload.TraceName) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultConfig(trace)
	cfg.DistinctPages = 200
	cfg.ModifiedPages = 80
	cfg.TotalPublished = 1000
	cfg.TotalRequests = 6500
	cfg.Servers = 16
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestParallelismIsDeterministic is the determinism suite the sharded
// simulator is held to: for every strategy in the catalog, on both
// traces, a run at Parallelism 8 must produce a Result deeply equal to
// the sequential run at Parallelism 1 — every counter, hourly series
// and per-server matrix. It runs under -race in CI, so it also proves
// the shards really share no mutable state.
func TestParallelismIsDeterministic(t *testing.T) {
	for _, trace := range []workload.TraceName{workload.TraceNEWS, workload.TraceALTERNATIVE} {
		w := determinismWorkload(t, trace)
		for _, f := range core.Catalog() {
			f := f
			t.Run(string(trace)+"/"+f.Name, func(t *testing.T) {
				seqOpts := DefaultOptions()
				seqOpts.Parallelism = 1
				seq, err := Run(w, f, seqOpts)
				if err != nil {
					t.Fatal(err)
				}
				parOpts := DefaultOptions()
				parOpts.Parallelism = 8
				par, err := Run(w, f, parOpts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("parallel result diverged from sequential:\nseq H=%.6f hits=%d cold=%d warm=%d\npar H=%.6f hits=%d cold=%d warm=%d",
						seq.HitRatio(), seq.Hits, seq.ColdMisses, seq.WarmMisses,
						par.HitRatio(), par.Hits, par.ColdMisses, par.WarmMisses)
				}
			})
		}
	}
}

// TestParallelShardDriversMatchRun drives NewReplay's shards the way
// the live soak does — one goroutine per proxy calling Offer and
// Request event by event — and requires the merged Result to deeply
// equal Run's, for a push scheme and an access-only one.
func TestParallelShardDriversMatchRun(t *testing.T) {
	w := determinismWorkload(t, workload.TraceNEWS)
	for _, name := range []string{"SUB", "GD*"} {
		f, err := core.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(w, f, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplay(w, f, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, sh := range r.Shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, ev := range sh.Events() {
					if ev.Request {
						sh.Request(ev)
					} else {
						sh.Offer(ev)
					}
				}
			}()
		}
		wg.Wait()
		if got := r.Result(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-event drive diverged from Run: H=%.6f hits=%d vs H=%.6f hits=%d",
				name, got.HitRatio(), got.Hits, want.HitRatio(), want.Hits)
		}
	}
}

// TestParallelTelemetryMatchesSequential asserts the telemetry registry
// accumulates identical totals whether shards replay sequentially or
// concurrently (the handles are atomic; sums are order-independent).
func TestParallelTelemetryMatchesSequential(t *testing.T) {
	w := determinismWorkload(t, workload.TraceNEWS)
	f, err := core.Lookup("SG2")
	if err != nil {
		t.Fatal(err)
	}
	totals := func(parallelism int) map[string]int64 {
		reg := telemetry.NewRegistry()
		opts := DefaultOptions()
		opts.Telemetry = reg
		opts.Parallelism = parallelism
		if _, err := Run(w, f, opts); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counters
	}
	seq, par := totals(1), totals(8)
	for name, want := range seq {
		if got := par[name]; got != want {
			t.Errorf("counter %s = %d under parallelism 8, want %d", name, got, want)
		}
	}
	if len(par) != len(seq) {
		t.Errorf("counter sets differ: %d vs %d", len(par), len(seq))
	}
}

// TestNegativeParallelismRejected pins the Options validation.
func TestNegativeParallelismRejected(t *testing.T) {
	w := determinismWorkload(t, workload.TraceNEWS)
	f, err := core.Lookup("GD*")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Parallelism = -1
	if _, err := Run(w, f, opts); err == nil {
		t.Error("negative parallelism should error")
	}
}
