// Command pubsubload is the closed-loop soak harness: it replays a
// seeded internal/workload trace against a live broker deployment
// (single node or cluster), measures wire-level delivery latency and
// origin traffic, then runs the simulator on the same seed and emits a
// parity report that exits non-zero when live and simulated behavior
// diverge beyond tolerance.
//
//	pubsubload -addrs 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//	    -scrape 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103 \
//	    -strategies 'GD*,LRU' -scale 50 -duration 10s \
//	    -out parity.json -bench-out BENCH_e2e.json
//
// Chaos soaks reuse the faultnet seam: -chaos-drop and -chaos-delay
// inject faults into every client connection the harness opens, so
// divergence under loss shows up as pushesMissed and parity deltas.
//
// Exit codes: 0 parity within tolerance, 1 divergence (gate breach),
// 2 setup or runtime error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"pubsubcd/internal/broker/faultnet"
	"pubsubcd/internal/core"
	"pubsubcd/internal/sim"
	"pubsubcd/internal/telemetry"
	"pubsubcd/internal/telemetry/fleet"
	"pubsubcd/internal/topology"
	"pubsubcd/internal/workload"
)

type config struct {
	addrs       string
	scrape      string
	metricsAddr string
	strategies  string
	trace       string
	scale       int
	seed        int64
	capacity    float64
	beta        float64
	duration    time.Duration
	warmup      time.Duration
	subConns    int
	pushWait    time.Duration
	maxBody     int64
	chaosDrop   float64
	chaosDelay  time.Duration
	chaosSeed   int64
	hitTol      float64
	trafficTol  float64
	out         string
	benchOut    string
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("pubsubload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.addrs, "addrs", "127.0.0.1:7100", "comma-separated broker addresses to load")
	fs.StringVar(&cfg.scrape, "scrape", "", "comma-separated broker metrics addresses to include in the fleet scrape")
	fs.StringVar(&cfg.metricsAddr, "metrics-addr", "127.0.0.1:0", "address for pubsubload's own metrics endpoint")
	fs.StringVar(&cfg.strategies, "strategies", "GD*,LRU", "comma-separated catalog strategies to soak sequentially")
	fs.StringVar(&cfg.trace, "trace", "NEWS", "workload trace (NEWS or ALTERNATIVE)")
	fs.IntVar(&cfg.scale, "scale", 50, "workload scale-down factor (1 = full paper workload)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed shared with the simulator")
	fs.Float64Var(&cfg.capacity, "capacity", 0.05, "cache capacity fraction")
	fs.Float64Var(&cfg.beta, "beta", 2, "GD* balance parameter")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "wall-clock duration of each strategy's replay")
	fs.DurationVar(&cfg.warmup, "warmup", 500*time.Millisecond, "warm-up phase before pacing starts")
	fs.IntVar(&cfg.subConns, "subscriber-conns", 8, "subscriber connections to fan proxies across")
	fs.DurationVar(&cfg.pushWait, "push-wait", 2*time.Second, "how long a proxy waits for a publication's notification before counting it missed")
	fs.Int64Var(&cfg.maxBody, "max-body", 4096, "cap on wire body bytes per publish (tallies use logical page size)")
	fs.Float64Var(&cfg.chaosDrop, "chaos-drop", 0, "faultnet write drop rate in [0,1) applied to all harness connections")
	fs.DurationVar(&cfg.chaosDelay, "chaos-delay", 0, "faultnet write delay applied to all harness connections")
	fs.Int64Var(&cfg.chaosSeed, "chaos-seed", 42, "faultnet seed")
	fs.Float64Var(&cfg.hitTol, "hit-tol", 0.05, "max |live-sim| hit-ratio gap (absolute)")
	fs.Float64Var(&cfg.trafficTol, "traffic-tol", 0.10, "max relative live-vs-sim origin-traffic gap")
	fs.StringVar(&cfg.out, "out", "", "write the JSON parity report here")
	fs.StringVar(&cfg.benchOut, "bench-out", "", "write the BENCH_e2e.json baseline block here")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	report, err := run(context.Background(), cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "pubsubload: %v\n", err)
		return 2
	}
	report.WriteText(stdout)
	if cfg.out != "" {
		if err := writeJSONFile(cfg.out, report); err != nil {
			fmt.Fprintf(stderr, "pubsubload: write report: %v\n", err)
			return 2
		}
	}
	if cfg.benchOut != "" {
		if err := writeJSONFile(cfg.benchOut, report.bench()); err != nil {
			fmt.Fprintf(stderr, "pubsubload: write bench: %v\n", err)
			return 2
		}
	}
	if !report.Pass {
		return 1
	}
	return 0
}

// run executes the whole soak: workload generation, one live replay
// per strategy, a simulator run per strategy on the same seed, a fleet
// scrape, and the gated report.
func run(ctx context.Context, cfg config, progress io.Writer) (*Report, error) {
	trace, err := workload.ParseTrace(cfg.trace)
	if err != nil {
		return nil, err
	}
	if cfg.scale < 1 {
		return nil, fmt.Errorf("scale must be >= 1, got %d", cfg.scale)
	}
	wcfg := workload.ScaledConfig(trace, cfg.scale)
	wcfg.Seed = cfg.seed
	w, err := workload.Generate(wcfg)
	if err != nil {
		return nil, fmt.Errorf("generate workload: %w", err)
	}
	ev := w.Events()
	caps := ev.CacheCapacities(cfg.capacity)
	simOpts := sim.DefaultOptions()
	simOpts.CapacityFraction = cfg.capacity
	simOpts.Beta = cfg.beta
	costs, err := topology.FetchCosts(wcfg.Servers, simOpts.TopologySeed)
	if err != nil {
		return nil, fmt.Errorf("fetch costs: %w", err)
	}
	simOpts.FetchCosts = costs

	var factories []core.Factory
	for _, name := range strings.Split(cfg.strategies, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		f, err := core.Lookup(name)
		if err != nil {
			return nil, err
		}
		factories = append(factories, f)
	}
	if len(factories) == 0 {
		return nil, fmt.Errorf("no strategies selected")
	}

	addrs := splitList(cfg.addrs)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("no broker addresses")
	}

	reg := telemetry.NewRegistry()
	admin, err := telemetry.NewAdminServer(cfg.metricsAddr, reg)
	if err != nil {
		return nil, fmt.Errorf("metrics endpoint: %w", err)
	}
	defer admin.Close()

	var dial func(ctx context.Context, addr string) (net.Conn, error)
	if cfg.chaosDrop > 0 || cfg.chaosDelay > 0 {
		fn := faultnet.New(cfg.chaosSeed)
		fn.SetDropRate(cfg.chaosDrop)
		fn.SetDelay(cfg.chaosDelay)
		dial = fn.Dial
	}

	report := &Report{
		Trace:            string(trace),
		Seed:             cfg.seed,
		Scale:            cfg.scale,
		CapacityFraction: cfg.capacity,
		Beta:             cfg.beta,
		DurationSeconds:  cfg.duration.Seconds(),
		HitTolerance:     cfg.hitTol,
		TrafficTolerance: cfg.trafficTol,
	}

	for i, f := range factories {
		ns := fmt.Sprintf("s%d-%s", i, sanitizeNS(f.Name))
		fmt.Fprintf(progress, "pubsubload: replaying %s (%d proxies, %d publications, %d requests)\n",
			f.Name, wcfg.Servers, len(w.Publications), len(w.Requests))
		rr, err := replayStrategy(ctx, w, ev, f, caps, costs, reg, ns, replayOptions{
			addrs:    addrs,
			duration: cfg.duration,
			warmup:   cfg.warmup,
			subConns: cfg.subConns,
			pushWait: cfg.pushWait,
			maxBody:  cfg.maxBody,
			beta:     cfg.beta,
			dial:     dial,
		})
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", f.Name, err)
		}
		fmt.Fprintf(progress, "pubsubload: %s replay done, running simulator\n", f.Name)
		sr, err := sim.Run(w, f, simOpts)
		if err != nil {
			return nil, fmt.Errorf("sim %s: %w", f.Name, err)
		}
		liveHR := rr.tally.hitRatio()
		liveTraffic := rr.tally.trafficBytes(true)
		simTraffic := sr.TotalTrafficBytes(sim.PushWhenNecessary)
		report.Strategies = append(report.Strategies, StrategyParity{
			Strategy:         f.Name,
			LiveRequests:     rr.tally.requests.Load(),
			LiveHits:         rr.tally.hits.Load(),
			LiveHitRatio:     liveHR,
			SimHitRatio:      sr.HitRatio(),
			HitRatioDelta:    absF(liveHR - sr.HitRatio()),
			LiveTrafficBytes: liveTraffic,
			SimTrafficBytes:  simTraffic,
			TrafficDelta:     relDelta(liveTraffic, simTraffic),
			PushesMissed:     rr.pushesMissed.Load(),
			FetchErrors:      rr.fetchErrors.Load(),
			PublishErrors:    rr.publishErrors.Load(),
			Delivered:        rr.delivered.Load(),
		})
	}

	// Fleet scrape: the brokers' metrics endpoints plus our own admin
	// server, so broker stage timers and client delivery histograms
	// merge into one latency picture.
	fmt.Fprintf(progress, "pubsubload: scraping fleet\n")
	targets := append(splitList(cfg.scrape), admin.Addr())
	sc, err := fleet.New(targets, fleet.Options{Timeout: 5 * time.Second})
	if err != nil {
		return nil, fmt.Errorf("fleet scraper: %w", err)
	}
	defer sc.Close()
	report.Fleet = buildFleetSection(sc.ScrapeOnce(ctx))

	report.gate()
	return report, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
