// Command broker runs a standalone publish/subscribe broker over TCP
// using the line-delimited-JSON protocol in internal/broker.
//
// Usage:
//
//	broker -addr 127.0.0.1:7070
//	broker -addr 127.0.0.1:7070 -metrics-addr 127.0.0.1:7071
//	broker -addr 127.0.0.1:7070 -uplink hub.example:7070 -uplink-topics news,sports
//	broker -addr 127.0.0.1:7070 -data-dir /var/lib/broker -fsync always -snapshot-interval 1m
//	broker -addr 127.0.0.1:7070 -metrics-addr 127.0.0.1:7071 -fleet-scrape 127.0.0.1:7071,127.0.0.1:7171 -profile-dir /tmp/profiles
//
// With -data-dir, the broker is durable: subscriptions are written to
// a CRC-framed write-ahead journal, snapshotted every
// -snapshot-interval, and recovered (with their original IDs) on the
// next start. -fsync picks the durability/latency trade: "always"
// group-commits every record to stable storage, "interval" syncs in
// the background, "none" leaves flushing to the OS. On SIGINT/SIGTERM
// the broker shuts down gracefully: it stops accepting, drains
// in-flight requests (up to -drain-timeout), writes a final
// checkpoint and exits 0.
//
// With -metrics-addr, an HTTP admin endpoint serves /metrics (JSON
// counters, gauges and latency histograms), /traces and /trace/{id}
// (distributed span traces: every request is traced end-to-end,
// including across uplinked and clustered peers over the wire;
// /traces?page=X lists the traces that published, fetched, pushed or
// requested page X),
// /healthz and /readyz (liveness and readiness: journal usable,
// listener accepting, uplink connected), and /debug/pprof/. Logs are
// structured (-log-level, -log-format text|json) and carry
// trace_id/span_id when emitted under an active span.
//
// /metrics is content-negotiated: JSON by default, Prometheus text
// 0.0.4 under Accept: text/plain, OpenMetrics 1.0 (with trace-ID
// exemplars on histogram buckets) under Accept:
// application/openmetrics-text or ?format=openmetrics. With
// -fleet-scrape, the broker also aggregates a fleet: it polls the
// listed admin endpoints every -fleet-interval and serves the merged
// snapshot on /fleet and per-node + fleet-wide SLO attainment and
// burn rate on /fleet/slo. With -profile-dir, an SLO-triggered
// profiler captures CPU + heap profiles into a bounded ring when the
// windowed publish-SLO miss rate or /readyz flap count crosses its
// threshold; /profiles lists the ring and /profiles/{name} serves a
// file for `go tool pprof`.
//
// With -uplink, the broker bridges itself into a remote broker: it
// subscribes there for the -uplink-topics / -uplink-keywords interests
// and republishes matching pages locally. The bridge rides the
// resilient client, so it redials with backoff (-backoff-initial,
// -backoff-max), probes liveness (-heartbeat, -heartbeat-timeout) and
// retries idempotent requests (-retry-budget, -request-timeout) across
// remote restarts.
//
// With -cluster-peers, the broker runs as one member of a horizontally
// sharded cluster instead of a standalone node:
//
//	broker -node-id n1 -addr 127.0.0.1:7070 -partitions 16 \
//	    -cluster-peers n1=127.0.0.1:7070,n2=127.0.0.1:7170,n3=127.0.0.1:7270
//
// Topics are consistent-hashed onto -partitions fixed partitions and
// partitions onto the live members; a publish, subscribe or fetch sent
// to any member is routed to the owner over the resilient transport.
// Every member must be started with the same -partitions and the same
// -cluster-peers list (its own entry included). Membership follows the
// heartbeat failure detector; joins and graceful leaves move partition
// state to the new owners through journaled handoffs (with -data-dir,
// each partition journals and recovers under data-dir/part-NNNN). On
// SIGINT/SIGTERM the member retires first — handing its partitions to
// the survivors — unless -retire-on-shutdown=false.
//
// A flag that belongs to one mode is a usage error outside it: the
// uplink client's flags without -uplink, the cluster member's
// (-node-id, -partitions, -cluster-heartbeat, -retire-on-shutdown)
// without -cluster-peers, and the standalone server's (-codecs,
// -max-frame, -idle-timeout, -write-timeout, -publish-slo) with
// -cluster-peers.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/cluster"
	"pubsubcd/internal/journal"
	"pubsubcd/internal/telemetry"
	"pubsubcd/internal/telemetry/fleet"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-sig
		close(stop)
	}()
	if err := run(os.Args[1:], stop, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "broker:", err)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value into a clean slice.
// codecsByName resolves a comma-separated codec list ("binary,json")
// into Codec implementations, rejecting unknown names.
func codecsByName(list string) ([]broker.Codec, error) {
	var out []broker.Codec
	for _, name := range splitList(list) {
		c, ok := broker.CodecByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown codec %q", name)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no codecs in %q", list)
	}
	return out, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parsePeers parses "id=addr,id=addr" into a peer map.
func parsePeers(s string) (map[string]string, error) {
	peers := map[string]string{}
	for _, part := range splitList(s) {
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -cluster-peers entry %q, want id=addr", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate -cluster-peers id %q", id)
		}
		peers[id] = addr
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-cluster-peers is empty")
	}
	return peers, nil
}

// run starts the broker server and blocks until stop is closed.
func run(args []string, stop <-chan struct{}, out *os.File) error {
	fs := flag.NewFlagSet("broker", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	metricsAddr := fs.String("metrics-addr", "", "HTTP admin address for /metrics, /traces and /debug/pprof (empty disables)")
	idleTimeout := fs.Duration("idle-timeout", 0, "close connections silent for this long (0 = default, negative disables)")
	writeTimeout := fs.Duration("write-timeout", 0, "bound each outbound write (0 = default, negative disables)")
	codecs := fs.String("codecs", "", "comma-separated wire codecs this server offers, most preferred first (empty = binary,json; \"json\" pins legacy framing)")
	maxFrame := fs.Int("max-frame", 0, "largest wire frame in bytes accepted or announced (0 = default 16 MiB)")
	slowConsumer := fs.String("slow-consumer-policy", "block", "what to do with a subscriber that stops reading notifications: block, drop-oldest or sever")
	maxPendingPerConn := fs.Int64("max-pending-per-conn", 0, "bytes of notifications queued toward one connection before the slow-consumer policy applies (0 = default 256 KiB)")
	shedWatermark := fs.Int64("shed-watermark", 0, "broker-wide pending fan-out bytes above which admission control sheds load (0 disables admission control)")
	uplink := fs.String("uplink", "", "remote broker address to bridge into this one (empty disables)")
	uplinkTopics := fs.String("uplink-topics", "", "comma-separated topics to subscribe for on the uplink")
	uplinkKeywords := fs.String("uplink-keywords", "", "comma-separated keywords to subscribe for on the uplink")
	backoffInitial := fs.Duration("backoff-initial", 0, "first reconnect delay for the uplink (0 = default)")
	backoffMax := fs.Duration("backoff-max", 0, "reconnect delay cap for the uplink (0 = default)")
	heartbeat := fs.Duration("heartbeat", 0, "uplink liveness probe interval (0 = default, negative disables)")
	heartbeatTimeout := fs.Duration("heartbeat-timeout", 0, "declare the uplink dead after this much silence (0 = 3x interval)")
	retryBudget := fs.Int("retry-budget", -1, "retries per idempotent uplink request (-1 = default)")
	maxReconnects := fs.Int("max-reconnects", 0, "consecutive failed uplink redials before giving up (0 = forever)")
	requestTimeout := fs.Duration("request-timeout", 0, "per-attempt deadline for uplink requests (0 disables)")
	uplinkCodec := fs.String("uplink-codec", "", "comma-separated wire codecs to offer on the uplink, most preferred first (empty = binary,json)")
	dataDir := fs.String("data-dir", "", "directory for the write-ahead journal and snapshots (empty = in-memory broker)")
	fsyncMode := fs.String("fsync", "always", "journal fsync policy: always, interval or none")
	snapshotInterval := fs.Duration("snapshot-interval", time.Minute, "how often to snapshot durable state and truncate the journal")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests before force-closing")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	publishSLO := fs.Duration("publish-slo", 0, "publish-to-placement latency budget for the slo hit/miss counters (0 = default 50ms)")
	fleetScrape := fs.String("fleet-scrape", "", "comma-separated admin addresses to scrape and aggregate; serves /fleet and /fleet/slo on this node's admin endpoint (requires -metrics-addr)")
	fleetInterval := fs.Duration("fleet-interval", 2*time.Second, "fleet scrape period")
	sloTarget := fs.Float64("slo-target", 0.99, "SLO attainment objective in (0,1) for the fleet burn rate")
	profileDir := fs.String("profile-dir", "", "capture pprof profiles into this directory when the SLO burns or /readyz flaps, served on /profiles (requires -metrics-addr; empty disables)")
	profileMissRate := fs.Float64("profile-miss-threshold", 0.2, "windowed SLO miss-rate fraction that triggers a profile capture")
	profileFlaps := fs.Int64("profile-flap-threshold", 3, "readyz flips per interval that trigger a profile capture")
	profileInterval := fs.Duration("profile-interval", 10*time.Second, "profile trigger evaluation period")
	profileCooldown := fs.Duration("profile-cooldown", 2*time.Minute, "minimum gap between profile captures")
	profileCPU := fs.Duration("profile-cpu-duration", 2*time.Second, "length of each triggered CPU profile")
	profileMax := fs.Int("profile-max", 16, "profile ring size: oldest captures beyond this are deleted")
	nodeID := fs.String("node-id", "", "this member's name in the cluster (required with -cluster-peers)")
	clusterPeers := fs.String("cluster-peers", "", "comma-separated id=addr cluster members, this node included (empty = standalone broker)")
	partitions := fs.Int("partitions", cluster.DefaultPartitions, "fixed topic-partition count; every member must agree")
	clusterHeartbeat := fs.Duration("cluster-heartbeat", 0, "peer-liveness probe interval (0 = default)")
	retireOnShutdown := fs.Bool("retire-on-shutdown", true, "hand partitions to the surviving members before exiting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metricsAddr == "" {
		if *fleetScrape != "" {
			return fmt.Errorf("usage: -fleet-scrape requires -metrics-addr")
		}
		if *profileDir != "" {
			return fmt.Errorf("usage: -profile-dir requires -metrics-addr")
		}
	}
	fsyncPolicy, err := journal.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		return fmt.Errorf("usage: %w (valid: always, interval, none)", err)
	}
	// Flags that belong to one mode are refused outside it instead of
	// being dropped silently. Only flags given explicitly count.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	firstSet := func(names ...string) string {
		for _, name := range names {
			if set[name] {
				return name
			}
		}
		return ""
	}
	if *clusterPeers == "" {
		if name := firstSet("node-id", "partitions", "cluster-heartbeat", "retire-on-shutdown"); name != "" {
			return fmt.Errorf("usage: -%s requires -cluster-peers", name)
		}
	}
	if *uplink == "" {
		if name := firstSet("uplink-topics", "uplink-keywords", "backoff-initial", "backoff-max", "heartbeat",
			"heartbeat-timeout", "retry-budget", "max-reconnects", "request-timeout", "uplink-codec"); name != "" {
			return fmt.Errorf("usage: -%s requires -uplink", name)
		}
	}
	var peers map[string]string
	if *clusterPeers != "" {
		if *nodeID == "" {
			return fmt.Errorf("usage: -cluster-peers requires -node-id")
		}
		if *uplink != "" {
			return fmt.Errorf("usage: -uplink cannot be combined with -cluster-peers")
		}
		// cluster.Start builds the member's server and partition brokers
		// itself and takes none of these.
		if name := firstSet("codecs", "max-frame", "idle-timeout", "write-timeout", "publish-slo"); name != "" {
			return fmt.Errorf("usage: -%s cannot be combined with -cluster-peers", name)
		}
		if peers, err = parsePeers(*clusterPeers); err != nil {
			return fmt.Errorf("usage: %w", err)
		}
		if _, ok := peers[*nodeID]; !ok {
			return fmt.Errorf("usage: -cluster-peers must include this node (%s)", *nodeID)
		}
	}
	if *dataDir != "" && *snapshotInterval <= 0 {
		return fmt.Errorf("usage: -snapshot-interval must be positive with -data-dir, got %v", *snapshotInterval)
	}
	slowPolicy, err := broker.ParseSlowConsumerPolicy(*slowConsumer)
	if err != nil {
		return fmt.Errorf("usage: -slow-consumer-policy: %w", err)
	}
	if *maxPendingPerConn < 0 {
		return fmt.Errorf("usage: -max-pending-per-conn must be non-negative, got %d", *maxPendingPerConn)
	}
	if *shedWatermark < 0 {
		return fmt.Errorf("usage: -shed-watermark must be non-negative, got %d", *shedWatermark)
	}
	var admission broker.AdmissionConfig
	if *shedWatermark > 0 {
		admission = broker.AdmissionConfig{PendingHighBytes: *shedWatermark}
	}
	logger, err := telemetry.NewLogger(out, *logLevel, *logFormat)
	if err != nil {
		return fmt.Errorf("usage: %w", err)
	}

	serverOpts := []broker.ServerOption{
		broker.WithIdleTimeout(*idleTimeout),
		broker.WithWriteTimeout(*writeTimeout),
		broker.WithSlowConsumerPolicy(slowPolicy),
		broker.WithMaxPendingPerConn(*maxPendingPerConn),
		broker.WithAdmissionControl(admission),
	}
	if *codecs != "" {
		named, err := codecsByName(*codecs)
		if err != nil {
			return fmt.Errorf("usage: -codecs: %w", err)
		}
		serverOpts = append(serverOpts, broker.WithCodec(named...))
	}
	if *maxFrame != 0 {
		if *maxFrame < 0 {
			return fmt.Errorf("usage: -max-frame must be positive, got %d", *maxFrame)
		}
		serverOpts = append(serverOpts, broker.WithMaxFrame(*maxFrame))
	}
	var reg *telemetry.Registry
	var spans *telemetry.SpanCollector
	var admin *telemetry.AdminServer
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		spans = telemetry.NewSpanCollector(telemetry.CollectorOptions{})
		serverOpts = append(serverOpts,
			broker.WithServerTelemetry(reg),
			broker.WithServerTracer(spans))
		admin, err = telemetry.NewAdminServer(*metricsAddr, reg, telemetry.WithSpans(spans))
		if err != nil {
			return err
		}
		defer admin.Close()
		logger.Info("admin endpoint up",
			"metrics", fmt.Sprintf("http://%s/metrics", admin.Addr()),
			"traces", fmt.Sprintf("http://%s/traces", admin.Addr()),
			"healthz", fmt.Sprintf("http://%s/healthz", admin.Addr()))

		if *fleetScrape != "" {
			scraper, err := fleet.New(splitList(*fleetScrape), fleet.Options{
				Interval:  *fleetInterval,
				SLOTarget: *sloTarget,
			})
			if err != nil {
				return fmt.Errorf("usage: %w", err)
			}
			scraper.Start()
			defer scraper.Close()
			admin.Handle("/fleet", scraper.FleetHandler())
			admin.Handle("/fleet/slo", scraper.SLOHandler())
			logger.Info("fleet aggregation up",
				"targets", *fleetScrape,
				"fleet", fmt.Sprintf("http://%s/fleet", admin.Addr()))
		}
		if *profileDir != "" {
			trigger, err := telemetry.NewProfileTrigger(telemetry.ProfileConfig{
				Dir:           *profileDir,
				MaxProfiles:   *profileMax,
				CPUDuration:   *profileCPU,
				Interval:      *profileInterval,
				Cooldown:      *profileCooldown,
				MissRate:      *profileMissRate,
				FlapThreshold: *profileFlaps,
				Hits:          reg.Counter("broker.slo.publish_to_placement.hit").Value,
				Misses:        reg.Counter("broker.slo.publish_to_placement.miss").Value,
				Flaps:         admin.ReadyTransitions,
				TraceHint:     telemetry.TraceHintFromCollector(spans),
			}, reg)
			if err != nil {
				return fmt.Errorf("usage: %w", err)
			}
			trigger.Start()
			defer trigger.Close()
			admin.Handle("/profiles", trigger.Handler())
			admin.Handle("/profiles/", trigger.Handler())
			logger.Info("slo-triggered profiling armed",
				"dir", *profileDir,
				"profiles", fmt.Sprintf("http://%s/profiles", admin.Addr()))
		}
	}
	if peers != nil {
		node, err := cluster.Start(cluster.Config{
			NodeID:             *nodeID,
			Addr:               *addr,
			Peers:              peers,
			Partitions:         *partitions,
			DataDir:            *dataDir,
			Fsync:              fsyncPolicy,
			SnapshotInterval:   *snapshotInterval,
			Registry:           reg,
			Spans:              spans,
			HeartbeatInterval:  *clusterHeartbeat,
			SlowConsumerPolicy: slowPolicy,
			MaxPendingPerConn:  *maxPendingPerConn,
			Admission:          admission,
		})
		if err != nil {
			return err
		}
		if admin != nil {
			admin.RegisterHealthCheck("cluster", func() error {
				if !node.Ring().HasMember(node.NodeID()) {
					return fmt.Errorf("node %s retired from the ring", node.NodeID())
				}
				return nil
			})
			admin.RegisterHealthCheck("overload", func() error {
				if state, reason := node.OverloadState(); state == "overloaded" {
					return fmt.Errorf("admission overloaded: %s", reason)
				}
				return nil
			})
		}
		logger.Info("cluster member up",
			"node", node.NodeID(), "addr", node.Addr(),
			"partitions", *partitions, "peers", len(peers)-1)
		<-stop
		logger.Info("shutting down")
		if *retireOnShutdown {
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			if err := node.Retire(ctx); err != nil {
				logger.Warn("retirement failed, closing without handoff", "error", err)
			} else {
				logger.Info("retired: partitions handed to the survivors")
			}
			cancel()
		}
		return node.Close()
	}

	b, err := broker.Open(
		broker.WithDataDir(*dataDir),
		broker.WithFsyncPolicy(fsyncPolicy),
		broker.WithSnapshotInterval(*snapshotInterval),
		broker.WithBrokerTelemetry(reg),
		broker.WithPublishSLO(*publishSLO),
	)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		logger.Info("durable state recovered",
			"dir", *dataDir, "fsync", fsyncPolicy.String(), "subscriptions", b.Subscriptions())
	}
	srv, err := broker.NewServer(b, *addr, serverOpts...)
	if err != nil {
		_ = b.Close()
		return err
	}
	if admin != nil {
		// Readiness: the journal must be usable and the listener must
		// still be accepting. Registered late — the admin endpoint comes
		// up before the broker so /healthz answers during recovery.
		admin.RegisterHealthCheck("journal", b.Healthy)
		admin.RegisterHealthCheck("listener", func() error {
			if !srv.Accepting() {
				return fmt.Errorf("listener draining")
			}
			return nil
		})
		// Degraded under sustained overload: admission control has
		// crossed its high watermark and is rejecting publishes, so the
		// balancer should route new work elsewhere until it recovers.
		admin.RegisterHealthCheck("overload", func() error {
			if state, reason := srv.OverloadState(); state == "overloaded" {
				return fmt.Errorf("admission overloaded: %s", reason)
			}
			return nil
		})
	}
	logger.Info("broker listening", "addr", srv.Addr())

	if *uplink != "" {
		topics, keywords := splitList(*uplinkTopics), splitList(*uplinkKeywords)
		if len(topics) == 0 && len(keywords) == 0 {
			_ = srv.Close()
			_ = b.Close()
			return fmt.Errorf("-uplink needs -uplink-topics and/or -uplink-keywords")
		}
		clientOpts := []broker.ClientOption{
			broker.WithReconnect(broker.BackoffPolicy{Initial: *backoffInitial, Max: *backoffMax}),
			broker.WithHeartbeat(*heartbeat, *heartbeatTimeout),
			broker.WithRetryBudget(*retryBudget),
			broker.WithMaxReconnectAttempts(*maxReconnects),
			broker.WithRequestTimeout(*requestTimeout),
			broker.WithClientTelemetry(reg),
			broker.WithClientTracer(spans),
			broker.WithConnStateHook(func(s broker.ConnState) {
				logger.Info("uplink state changed", "uplink", *uplink, "state", s.String())
			}),
		}
		if *uplinkCodec != "" {
			named, err := codecsByName(*uplinkCodec)
			if err != nil {
				_ = srv.Close()
				_ = b.Close()
				return fmt.Errorf("usage: -uplink-codec: %w", err)
			}
			clientOpts = append(clientOpts, broker.WithPreferredCodec(named...))
			if *maxFrame > 0 {
				clientOpts = append(clientOpts, broker.WithClientMaxFrame(*maxFrame))
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		link, err := broker.NewRemoteLink(ctx, b, *uplink, topics, keywords, clientOpts...)
		cancel()
		if err != nil {
			_ = srv.Close()
			_ = b.Close()
			return fmt.Errorf("uplink: %w", err)
		}
		defer link.Close()
		if admin != nil {
			admin.RegisterHealthCheck("uplink", func() error {
				if !link.Client().Connected() {
					return fmt.Errorf("uplink %s disconnected", *uplink)
				}
				return nil
			})
		}
		logger.Info("uplink bridged", "uplink", *uplink, "topics", topics, "keywords", keywords)
	}

	<-stop
	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// flush the journal with a final checkpoint.
	logger.Info("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	err = srv.Shutdown(ctx)
	cancel()
	if cerr := b.Close(); err == nil {
		err = cerr
	}
	return err
}
