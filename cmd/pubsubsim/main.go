// Command pubsubsim runs a single content-distribution simulation and
// prints the metrics the paper reports: the global hit ratio H and the
// publisher→proxy traffic under both pushing schemes.
//
// Usage:
//
//	pubsubsim -strategy SG2 -trace NEWS -capacity 0.05 -beta 0.5
//	pubsubsim -strategy DC-LAP -trace ALTERNATIVE -sq 0.5 -hourly
//	pubsubsim -strategy GD* -load trace.gob.gz
//	pubsubsim -strategy SG2 -scale 50 -parallel 8 -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"

	"pubsubcd/internal/core"
	"pubsubcd/internal/sim"
	"pubsubcd/internal/telemetry"
	"pubsubcd/internal/topology"
	"pubsubcd/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pubsubsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pubsubsim", flag.ContinueOnError)
	strategy := fs.String("strategy", "SG2", "strategy name (see -catalog)")
	trace := fs.String("trace", "NEWS", "trace: NEWS (α=1.5) or ALTERNATIVE (α=1.0)")
	capacity := fs.Float64("capacity", 0.05, "cache capacity as a fraction of unique bytes per server, in (0, 1]")
	beta := fs.Float64("beta", 2, "GD* balance parameter β")
	sq := fs.Float64("sq", 1, "subscription quality SQ in (0, 1]")
	scale := fs.Int("scale", 1, "workload scale divisor (≥ 1)")
	seed := fs.Int64("seed", 1, "workload random seed")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "proxy shards simulated concurrently (≥ 1); results are identical at any level")
	load := fs.String("load", "", "load workload trace from file instead of generating")
	hourly := fs.Bool("hourly", false, "print the hourly hit-ratio series")
	analyze := fs.Bool("analyze", false, "print workload distribution analysis")
	latency := fs.Bool("latency", true, "print the estimated mean response time")
	jsonOut := fs.Bool("json", false, "emit the full simulation result as JSON instead of text")
	catalog := fs.Bool("catalog", false, "list strategies and exit")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /traces and /debug/pprof on this address during the run and print a telemetry summary (empty disables)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *catalog {
		for _, f := range core.Catalog() {
			fmt.Printf("%-8s when=%-12s how=%s\n", f.Name, f.When, f.How)
		}
		return nil
	}
	// Validate flags up front with actionable messages instead of
	// clamping silently or failing deep inside the simulator.
	if !(0 < *capacity && *capacity <= 1) {
		return fmt.Errorf("-capacity must be in (0, 1], got %g", *capacity)
	}
	if !(0 < *beta && *beta <= math.MaxFloat64) {
		return fmt.Errorf("-beta must be positive and finite, got %g", *beta)
	}
	if *scale < 1 {
		return fmt.Errorf("-scale must be ≥ 1, got %d", *scale)
	}
	if *parallel < 1 {
		return fmt.Errorf("-parallel must be ≥ 1, got %d", *parallel)
	}
	if !(0 < *sq && *sq <= 1) {
		return fmt.Errorf("-sq must be in (0, 1], got %g", *sq)
	}

	var w *workload.Workload
	if *load != "" {
		w, err = workload.LoadFile(*load)
	} else {
		tn, terr := workload.ParseTrace(*trace)
		if terr != nil {
			return terr
		}
		cfg := workload.ScaledConfig(tn, *scale)
		cfg.Seed = *seed
		cfg.SQ = *sq
		w, err = workload.Generate(cfg)
	}
	if err != nil {
		return err
	}

	if *analyze && !*jsonOut {
		if err := w.Analyze().WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	f, err := core.Lookup(*strategy)
	if err != nil {
		return err
	}
	costs, err := topology.FetchCosts(w.Config.Servers, 7)
	if err != nil {
		return err
	}
	var reg *telemetry.Registry
	var spans *telemetry.SpanCollector
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		spans = telemetry.NewSpanCollector(telemetry.CollectorOptions{})
		admin, err := telemetry.NewAdminServer(*metricsAddr, reg, telemetry.WithSpans(spans))
		if err != nil {
			return err
		}
		defer admin.Close()
		logger.Info("admin endpoint up",
			"metrics", fmt.Sprintf("http://%s/metrics", admin.Addr()),
			"traces", fmt.Sprintf("http://%s/traces", admin.Addr()))
	}
	logger.Debug("simulation starting",
		"strategy", f.Name, "trace", string(w.Config.Trace()),
		"servers", w.Config.Servers, "parallel", *parallel)
	res, err := sim.Run(w, f, sim.Options{
		CapacityFraction: *capacity,
		Beta:             *beta,
		FetchCosts:       costs,
		Telemetry:        reg,
		Parallelism:      *parallel,
		Spans:            spans,
	})
	if err != nil {
		return err
	}
	logger.Debug("simulation complete",
		"requests", res.Requests, "hits", res.Hits)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	fmt.Printf("strategy           %s\n", res.Strategy)
	fmt.Printf("trace              %s (SQ=%g)\n", res.Trace, res.SQ)
	fmt.Printf("capacity           %g%% of unique bytes, beta=%g\n", res.CapacityFraction*100, res.Beta)
	fmt.Printf("requests           %d\n", res.Requests)
	fmt.Printf("hits               %d\n", res.Hits)
	fmt.Printf("hit ratio H        %.4f\n", res.HitRatio())
	fmt.Printf("cold misses        %d\n", res.ColdMisses)
	fmt.Printf("warm misses        %d\n", res.WarmMisses)
	fmt.Printf("traffic (pages)    always-pushing=%d  pushing-when-necessary=%d\n",
		res.TotalTraffic(sim.AlwaysPush), res.TotalTraffic(sim.PushWhenNecessary))
	fmt.Printf("traffic (bytes)    always-pushing=%d  pushing-when-necessary=%d\n",
		res.TotalTrafficBytes(sim.AlwaysPush), res.TotalTrafficBytes(sim.PushWhenNecessary))
	if *latency {
		mrt, err := res.MeanResponseTime(sim.DefaultLatencyModel(), costs)
		if err != nil {
			return err
		}
		fmt.Printf("est. response time %.1f ms/request (10 ms hit, ~200 ms origin fetch)\n", mrt)
	}
	if *hourly {
		fmt.Println("\nhour  hit-ratio")
		for hr, v := range res.HourlyHitRatio() {
			if math.IsNaN(v) {
				fmt.Printf("%4d  -\n", hr)
			} else {
				fmt.Printf("%4d  %.4f\n", hr, v)
			}
		}
	}
	if reg != nil {
		fmt.Println("\ntelemetry summary")
		if err := reg.Snapshot().WriteSummary(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
