package pubsubcd

import (
	"io"
	"runtime"
	"testing"

	"pubsubcd/internal/experiments"
)

// benchScale shrinks the workload for the figure-regeneration benches so
// `go test -bench=.` stays fast; cmd/report regenerates the figures at
// the paper's full scale (-scale 1).
const benchScale = 50

// benchDriver measures regenerating one table/figure end to end through
// its experiment driver: workload generation, β selection and the full
// simulation matrix, on a fresh harness each iteration.
func benchDriver[T any](b *testing.B, driver func(*ExperimentHarness) (T, error)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewExperimentHarness(ExperimentConfig{Scale: benchScale, Seed: 1, TopologySeed: 7})
		if _, err := driver(h); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per table and figure in the paper's evaluation (§5).

func BenchmarkTable1Taxonomy(b *testing.B) {
	benchDriver(b, func(*ExperimentHarness) (struct{}, error) { return struct{}{}, experiments.Table1(io.Discard) })
}
func BenchmarkBetaSweep(b *testing.B)            { benchDriver(b, experiments.BetaSweep) }
func BenchmarkFig3DualFamily(b *testing.B)       { benchDriver(b, experiments.Fig3) }
func BenchmarkFig4HitRatios(b *testing.B)        { benchDriver(b, experiments.Fig4) }
func BenchmarkTable2Improvements(b *testing.B)   { benchDriver(b, experiments.Table2) }
func BenchmarkFig5SubscriptionQual(b *testing.B) { benchDriver(b, experiments.Fig5) }
func BenchmarkFig6HourlyHitRatio(b *testing.B)   { benchDriver(b, experiments.Fig6) }
func BenchmarkFig7Traffic(b *testing.B)          { benchDriver(b, experiments.Fig7) }

// Extension benches: the ablations DESIGN.md calls out.

func BenchmarkBaselinesAblation(b *testing.B)     { benchDriver(b, experiments.Baselines) }
func BenchmarkDCLAPBoundsAblation(b *testing.B)   { benchDriver(b, experiments.DCLAPBoundsSweep) }
func BenchmarkMixedRequestsAblation(b *testing.B) { benchDriver(b, experiments.MixedRequests) }
func BenchmarkClosedLoopValidation(b *testing.B)  { benchDriver(b, experiments.ClosedLoop) }
func BenchmarkResponseTimes(b *testing.B)         { benchDriver(b, experiments.ResponseTimes) }

// Micro-benches on the core building blocks.

func BenchmarkWorkloadGeneration(b *testing.B) {
	cfg := ScaledWorkloadConfig(TraceNEWS, benchScale)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateWorkload(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulationRun(b *testing.B) {
	benchSimulation(b, "SG2", benchScale, 0)
}

// BenchmarkSimulationRunPaperScale is the same SG2 simulation on the
// paper's full-scale NEWS workload (scale 1). Its caches are hundreds of
// times larger, so the strategy containers' per-event cost dominates,
// and one run lasts long enough (~0.2 s on a 2-core box) that a median
// of five resolves a core regression the few-millisecond scale-50 runs
// lose in noise.
func BenchmarkSimulationRunPaperScale(b *testing.B) {
	benchSimulation(b, "SG2", 1, 0)
}

// BenchmarkSimulationRunPaperScaleDCLAP replays the same workload through
// DC-LAP, whose dual caches take the paths SG2's single cache never does:
// DC-AP's reclaim of idle access-cache storage for pushes SUB turns down,
// and the first-access move from the push cache to the access cache.
func BenchmarkSimulationRunPaperScaleDCLAP(b *testing.B) {
	benchSimulation(b, "DC-LAP", 1, 0)
}

// The Sequential/Parallel pair measures the per-proxy sharding speedup
// in isolation: identical workload (event view pre-warmed outside the
// timed region), identical strategy, only Options.Parallelism differs.
// CI's bench smoke step feeds both through cmd/benchjson to publish the
// sequential-vs-parallel ratio as a workflow artifact.

func BenchmarkSimulationRunSequential(b *testing.B) {
	benchSimulation(b, "SG2", benchScale, 1)
}

func BenchmarkSimulationRunParallel(b *testing.B) {
	benchSimulation(b, "SG2", benchScale, runtime.GOMAXPROCS(0))
}

// The TracingDisabled/TracingEnabled pair measures span-tracing
// overhead on the simulation path: identical runs, one with
// Options.Spans nil (StartSpan is a no-op returning a nil span) and
// one recording a sim.run root plus a sim.shard span per proxy into a
// bounded collector. The enabled run should stay within a few percent
// of the disabled one — the span count is per-shard, not per-event.

func BenchmarkSimulationRunTracingDisabled(b *testing.B) {
	benchSimulationTracing(b, false)
}

func BenchmarkSimulationRunTracingEnabled(b *testing.B) {
	benchSimulationTracing(b, true)
}

func benchSimulationTracing(b *testing.B, traced bool) {
	w, err := GenerateWorkload(ScaledWorkloadConfig(TraceNEWS, benchScale))
	if err != nil {
		b.Fatal(err)
	}
	f, err := LookupStrategy("SG2")
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultSimOptions()
	if traced {
		opts.Spans = NewSpanCollector(SpanCollectorOptions{})
	}
	if _, err := Simulate(w, f, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(w, f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSimulation runs the named strategy's simulation of the NEWS
// workload at the given scale and a fixed shard parallelism (0 = the
// facade default, GOMAXPROCS). One untimed warm-up run builds the
// workload's cached event view so the timed iterations measure pure
// simulation, not view construction.
func benchSimulation(b *testing.B, strategy string, scale, parallelism int) {
	w, err := GenerateWorkload(ScaledWorkloadConfig(TraceNEWS, scale))
	if err != nil {
		b.Fatal(err)
	}
	f, err := LookupStrategy(strategy)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultSimOptions()
	opts.Parallelism = parallelism
	if _, err := Simulate(w, f, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(w, f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchStrategyOps(b *testing.B, name string) {
	f, err := LookupStrategy(name)
	if err != nil {
		b.Fatal(err)
	}
	s, err := f.New(StrategyParams{Capacity: 1 << 20, Beta: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % 512
		meta := PageMeta{ID: id, Size: int64(1000 + id*13%9000), Cost: 1}
		if i%3 == 0 {
			s.Push(meta, 0, 1+id%7)
		} else {
			s.Request(meta, 0, 1+id%7)
		}
	}
}

func BenchmarkStrategyGDStar(b *testing.B) { benchStrategyOps(b, "GD*") }
func BenchmarkStrategySUB(b *testing.B)    { benchStrategyOps(b, "SUB") }
func BenchmarkStrategySG2(b *testing.B)    { benchStrategyOps(b, "SG2") }
func BenchmarkStrategyDM(b *testing.B)     { benchStrategyOps(b, "DM") }
func BenchmarkStrategyDCLAP(b *testing.B)  { benchStrategyOps(b, "DC-LAP") }

func BenchmarkMatchEngine(b *testing.B) {
	e := NewMatchEngine()
	topics := []string{"sports", "politics", "tech", "weather", "finance"}
	for i := 0; i < 5000; i++ {
		if _, err := e.Subscribe(Subscription{
			Proxy:  i % 100,
			Topics: []string{topics[i%len(topics)]},
		}); err != nil {
			b.Fatal(err)
		}
	}
	ev := Event{ID: "e", Topics: []string{"tech"}}
	groups, members := e.AppendMatchGroups(nil, nil, ev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, members = e.AppendMatchGroups(groups[:0], members[:0], ev)
	}
	if len(members) != 1000 {
		b.Fatalf("matched %d subscriptions, want 1000", len(members))
	}
}
