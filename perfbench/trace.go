package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/core"
	"pubsubcd/internal/match"
	"pubsubcd/internal/sim"
)

// spansDir is where the traced suite writes its spans, relative to the
// working directory: the build directory, which version control ignores.
const spansDir = ".bench_build/spans"

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the span that caused it (0 for an op's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	base  time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) newID() uint64 { return r.next.Add(1) }

func (r *recorder) add(id, parent, op uint64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Op: op, Name: name, Start: start.Sub(r.base).Nanoseconds(), End: end.Sub(r.base).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write stores the spans as JSON lines under spansDir.
func (r *recorder) write(name string) error {
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(spansDir, name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

func medianUs(ns []float64) float64 { return median(ns) / 1e3 }

// layerOut collects the per-layer metrics of the traced suite.
type layerOut map[string]metric

func (l layerOut) set(name string, v float64, unit string) { l[name] = metric{v, unit} }

// runTracedSuite runs every workload with the timing decorators
// installed and reports the per-layer metrics. Every traced run reports
// every per-layer metric, so the suite covers all three workloads
// whichever one is named.
func runTracedSuite(cfg config) (*outcome, error) {
	out := &outcome{metrics: layerOut{}}
	seg := time.Duration(cfg.seconds) * time.Second / 4
	if seg < time.Second {
		seg = time.Second
	}
	rec := newRecorder()
	if err := traceSim(cfg.seed, rec, out); err != nil {
		return nil, fmt.Errorf("sim_paper: %w", err)
	}
	if err := traceLive(cfg.seed, seg, rec, out); err != nil {
		return nil, fmt.Errorf("live_news: %w", err)
	}
	if err := traceFanout(cfg.seed, seg, out); err != nil {
		return nil, fmt.Errorf("cluster_fanout: %w", err)
	}
	if err := rec.write(fmt.Sprintf("seed-%d", cfg.seed)); err != nil {
		return nil, err
	}
	return out, nil
}

// traceSim attributes sim_paper to the workload, sim and core layers.
func traceSim(seed int64, rec *recorder, out *outcome) error {
	l := layerOut(out.metrics)
	factories, err := lookupStrategies()
	if err != nil {
		return err
	}
	var in *simInput
	var gen, ev []float64
	for i := 0; i < setupRepeats; i++ {
		in = nil
		if in, err = buildSimInput(seed, 1); err != nil {
			return err
		}
		gen = append(gen, float64(in.generateDur.Microseconds())/1e3)
		ev = append(ev, float64(in.eventsDur.Microseconds())/1e3)
	}
	l.set("workload.generate_ms", median(gen), "ms")
	l.set("workload.events_ms", median(ev), "ms")

	// Untraced passes at the default parallelism: the per-strategy run
	// times behind ops_per_s, and the runtime counters.
	settle()
	plain := make(map[string]*sim.Result)
	rt0 := readRuntime()
	for _, f := range factories {
		t := time.Now()
		res, err := sim.Run(in.w, f, in.options(0))
		out.attempted++
		if err != nil {
			return err
		}
		plain[f.Name] = res
		l.set("sim.run_ms."+metricName(f.Name), float64(time.Since(t).Microseconds())/1e3, "ms")
	}
	runtimeDelta(rt0, readRuntime(), in.events*int64(len(factories)), "sim_paper", l)

	// sim.shard_speedup: sequential SG2 replays over default ones, the
	// median of three alternating pairs.
	sg2, err := core.Lookup("SG2")
	if err != nil {
		return err
	}
	timeRun := func(parallelism int) (wall, cpu time.Duration, err error) {
		cpu0, t := cpuTime(), time.Now()
		_, err = sim.Run(in.w, sg2, in.options(parallelism))
		return time.Since(t), cpuTime() - cpu0, err
	}
	var speedups []float64
	var seqWall, seqCPU time.Duration
	for i := 0; i < 3; i++ {
		seq, cpu, err := timeRun(1)
		if err != nil {
			return err
		}
		par, _, err := timeRun(0)
		if err != nil {
			return err
		}
		speedups = append(speedups, seq.Seconds()/par.Seconds())
		seqWall, seqCPU = seq, cpu
	}
	l.set("sim.shard_speedup", median(speedups), "x")

	// Decorated sequential passes: with one replay goroutine, a run's
	// wall time minus the time inside core calls is sim's self time.
	var simSelf time.Duration
	for _, f := range factories {
		var times []*strategyTimes
		var root atomic.Uint64
		sample := func(name string) func(seq int64, start, end time.Time) {
			return func(seq int64, start, end time.Time) {
				if seq%4096 == 0 {
					rec.add(rec.newID(), root.Load(), root.Load(), name, start, end)
				}
			}
		}
		tf := timedFactory(f, &times, sample("core.push"), sample("core.request"))
		root.Store(rec.newID())
		cpu0, t := cpuTime(), time.Now()
		res, err := sim.Run(in.w, tf, in.options(1))
		out.attempted++
		if err != nil {
			return err
		}
		w, cpu := time.Since(t), cpuTime()-cpu0
		rec.add(root.Load(), 0, root.Load(), "sim.run."+metricName(f.Name), t, t.Add(w))
		if !reflect.DeepEqual(res, plain[f.Name]) {
			out.fail("%s: decorated run differs from the plain run", f.Name)
		}
		var pushes, pushNs, stored, reqs, reqNs int64
		for _, st := range times {
			pushes += st.pushes.Load()
			pushNs += st.pushNs.Load()
			stored += st.stored.Load()
			reqs += st.requests.Load()
			reqNs += st.requestNs.Load()
		}
		simSelf += w - time.Duration(pushNs+reqNs)
		name := metricName(f.Name)
		if pushes > 0 {
			l.set("core.push_ns."+name, float64(pushNs)/float64(pushes), "ns")
			l.set("core.push_stored_ratio."+name, float64(stored)/float64(pushes), "1")
		}
		if reqs > 0 {
			l.set("core.request_ns."+name, float64(reqNs)/float64(reqs), "ns")
		}
		if f.Name == "SG2" {
			l.set("trace.overhead_ops.sim_paper", seqWall.Seconds()/w.Seconds(), "x")
			l.set("trace.overhead_cpu.sim_paper", cpu.Seconds()/seqCPU.Seconds(), "x")
		}
	}
	l.set("sim.self_ms", float64(simSelf.Microseconds())/1e3, "ms")
	return nil
}

// liveOpRec is one traced live_news op. Fields the server's goroutine
// writes are atomic.
type liveOpRec struct {
	k       uint64
	publish bool
	// span IDs of the op's fixed structure.
	root, client, brokerSpan, fetch uint64
	due, send, end                  time.Time
	brokerStart                     time.Time // guarded by mu
	brokerNs, corePushNs            atomic.Int64
	coreReqNs, fetchNs              atomic.Int64
	brokerFetchNs                   atomic.Int64
	fetched                         atomic.Bool

	// enqueued are the instants the broker handed each of a publish's
	// notifications to the subscriber connection, receipts the instants
	// they arrived. The connection is FIFO and the broker notifies in
	// subscription order, so the i-th receipt is the i-th enqueue.
	mu       sync.Mutex
	enqueued []time.Time
	receipts []time.Time
}

// liveTrace is the traced live_news run's state. The live generator runs
// one op at a time, so the decorators attribute each call to the op in
// cur.
type liveTrace struct {
	rec   *recorder
	on    atomic.Bool
	cur   atomic.Pointer[liveOpRec]
	strat strategyTimes

	mu        sync.Mutex
	subscribe []float64 // ns
	ops       []*liveOpRec
	byK       map[int]*liveOpRec
}

// liveNote is one notification, for the delivery ladder.
type liveNote struct {
	op                *liveOpRec
	enqueued, receipt time.Time
}

func newLiveTrace(rec *recorder) *liveTrace {
	return &liveTrace{rec: rec, byK: make(map[int]*liveOpRec)}
}

func (tr *liveTrace) active() *liveOpRec {
	if !tr.on.Load() {
		return nil
	}
	return tr.cur.Load()
}

func (tr *liveTrace) backend(b broker.Backend) broker.Backend {
	return &timedBackend{
		inner: b,
		onPublish: func(start, end time.Time) {
			if op := tr.active(); op != nil && op.publish {
				op.mu.Lock()
				op.brokerStart = start
				op.mu.Unlock()
				op.brokerNs.Store(end.Sub(start).Nanoseconds())
				tr.rec.add(op.brokerSpan, op.client, op.k, "broker.publish", start, end)
			}
		},
		onFetch: func(start, end time.Time) {
			if op := tr.active(); op != nil && !op.publish {
				op.brokerFetchNs.Add(end.Sub(start).Nanoseconds())
				tr.rec.add(tr.rec.newID(), op.fetch, op.k, "broker.fetch", start, end)
			}
		},
		onSubscr: func(start, end time.Time) {
			if tr.on.Load() {
				tr.mu.Lock()
				tr.subscribe = append(tr.subscribe, float64(end.Sub(start).Nanoseconds()))
				tr.mu.Unlock()
			}
		},
		onNotify: func(at time.Time) {
			if op := tr.active(); op != nil && op.publish {
				op.mu.Lock()
				op.enqueued = append(op.enqueued, at)
				op.mu.Unlock()
			}
		},
	}
}

func (tr *liveTrace) fetcher(f broker.Fetcher) broker.Fetcher {
	return &timedFetcher{inner: f, onFetch: func(start, end time.Time) {
		if op := tr.active(); op != nil {
			op.fetched.Store(true)
			op.fetchNs.Add(end.Sub(start).Nanoseconds())
			tr.rec.add(op.fetch, op.client, op.k, "proxy.origin_fetch", start, end)
		}
	}}
}

func (tr *liveTrace) strategy(s core.Strategy) core.Strategy {
	ts := &timedStrategy{inner: s, t: &tr.strat,
		onPush: func(_ int64, start, end time.Time) {
			if op := tr.active(); op != nil && op.publish {
				op.corePushNs.Add(end.Sub(start).Nanoseconds())
				tr.rec.add(tr.rec.newID(), op.brokerSpan, op.k, "core.push", start, end)
			}
		},
		onRequest: func(_ int64, start, end time.Time) {
			if op := tr.active(); op != nil && !op.publish {
				op.coreReqNs.Add(end.Sub(start).Nanoseconds())
				tr.rec.add(tr.rec.newID(), op.client, op.k, "core.request", start, end)
			}
		},
	}
	return ts.decorate()
}

func (tr *liveTrace) begin(k int, publish bool, due, send time.Time) {
	if !tr.on.Load() {
		tr.cur.Store(nil)
		return
	}
	r := tr.rec
	op := &liveOpRec{k: uint64(k), publish: publish, due: due, send: send,
		root: r.newID(), client: r.newID(), brokerSpan: r.newID(), fetch: r.newID()}
	tr.mu.Lock()
	tr.byK[k] = op
	tr.mu.Unlock()
	tr.cur.Store(op)
}

func (tr *liveTrace) beginPublish(k int, due, send time.Time) { tr.begin(k, true, due, send) }
func (tr *liveTrace) beginRequest(k int, due, send time.Time) { tr.begin(k, false, due, send) }

func (tr *liveTrace) finish(end time.Time) {
	op := tr.cur.Swap(nil)
	if op == nil {
		return
	}
	op.end = end
	name := "client.publish"
	if !op.publish {
		name = "proxy.request"
	}
	tr.rec.add(op.client, op.root, op.k, name, op.send, end)
	tr.rec.add(op.root, 0, op.k, "loadgen.op", op.due, end)
	tr.mu.Lock()
	tr.ops = append(tr.ops, op)
	tr.mu.Unlock()
}

func (tr *liveTrace) endPublish(resp time.Time) { tr.finish(resp) }
func (tr *liveTrace) endRequest(done time.Time) { tr.finish(done) }

// notified records the arrival of a notification of op k; it runs on
// the subscriber client's read loop.
func (tr *liveTrace) notified(k int, receipt time.Time) {
	tr.mu.Lock()
	op := tr.byK[k]
	tr.mu.Unlock()
	if op != nil {
		op.mu.Lock()
		op.receipts = append(op.receipts, receipt)
		op.mu.Unlock()
	}
}

// ladderRow is one layer's share of an end-to-end latency.
type ladderRow struct {
	name string
	ns   func(i int) int64
}

// ladder attributes an end-to-end latency to layers. Medians do not
// add up, so the rows are the layers' means over the samples whose
// total lies between the 45th and 55th percentiles: they sum to that
// window's mean total, which is within the window of the median. The
// check fails when the rows miss a layer or count one twice.
func ladder(title string, n int, total func(i int) int64, rows []ladderRow, out *outcome) string {
	if n == 0 {
		out.fail("%s ladder: no samples", title)
		return ""
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return total(idx[a]) < total(idx[b]) })
	lo, hi := n*45/100, n*55/100+1
	if hi > n {
		hi = n
	}
	med := float64(total(idx[n/2]))
	resolution := float64(total(idx[hi-1]) - total(idx[lo]))
	var b strings.Builder
	fmt.Fprintf(&b, "ladder %s (n=%d, rows = layer means over the p45-p55 window)\n", title, n)
	sum := 0.0
	for _, r := range rows {
		v := 0.0
		for _, i := range idx[lo:hi] {
			v += float64(r.ns(i))
		}
		v /= float64(hi - lo)
		sum += v
		fmt.Fprintf(&b, "  %-44s %12.1f us\n", r.name, v/1e3)
	}
	fmt.Fprintf(&b, "  %-44s %12.1f us\n", "sum of rows", sum/1e3)
	fmt.Fprintf(&b, "  %-44s %12.1f us (resolution %.1f us)\n", "end-to-end median", med/1e3, resolution/1e3)
	if d := sum - med; d > resolution+1e3 || -d > resolution+1e3 {
		out.fail("%s ladder: rows sum to %.1f us, median is %.1f us, resolution %.1f us", title, sum/1e3, med/1e3, resolution/1e3)
	}
	return b.String()
}

// traceLive attributes live_news to the broker, proxy, client and
// transport layers, with an untraced segment first for the overhead.
func traceLive(seed int64, seg time.Duration, rec *recorder, out *outcome) error {
	l := layerOut(out.metrics)
	in, err := buildLiveInput(seed)
	if err != nil {
		return err
	}
	traceMatch(in, l)
	tr := newLiveTrace(rec)
	tr.on.Store(true) // time the setup's subscribes
	ls, err := startLive(in, tr)
	if err != nil {
		return err
	}
	defer ls.close()
	tr.on.Store(false)
	n := int(seg.Seconds() * liveRate)

	settle()
	rt0 := readRuntime()
	plain := ls.drive(n)
	runtimeDelta(rt0, readRuntime(), plain.ops, "live_news", l)
	l.set("loadgen.late_p99_us", plain.late.quantile(0.99)/1e3, "us")

	// The traced segment replays the same stretch of the trace on its
	// second pass, so both segments publish the same pages.
	ls.next = len(in.ops)
	tr.on.Store(true)
	settle()
	traced := ls.drive(n)
	tr.on.Store(false)
	out.attempted += plain.ops + traced.ops
	out.failed += plain.reqFailed + plain.pubFailed + plain.missing + traced.reqFailed + traced.pubFailed + traced.missing
	out.late += plain.pubLate + traced.pubLate
	ls.check(out, plain.requests+traced.requests)
	l.set("trace.overhead_cpu.live_news", float64(traced.cpu)/float64(plain.cpu), "x")
	l.set("trace.overhead_ops.live_news", (float64(n)/traced.elapsed.Seconds())/(float64(n)/plain.elapsed.Seconds()), "x")

	tr.mu.Lock()
	defer tr.mu.Unlock()
	rec.mu.Lock()
	self := selfTimes(rec.spans)
	rec.mu.Unlock()
	var brokerSelf, rtt, overhead, hit, missSelf, fetch, brokerFetch []float64
	var pubs, reqs []*liveOpRec
	for _, op := range tr.ops {
		if op.publish {
			pubs = append(pubs, op)
			b := float64(op.brokerNs.Load())
			brokerSelf = append(brokerSelf, float64(self[op.brokerSpan]))
			rtt = append(rtt, float64(op.end.Sub(op.send).Nanoseconds()))
			overhead = append(overhead, float64(op.end.Sub(op.send).Nanoseconds())-b)
			continue
		}
		reqs = append(reqs, op)
		if op.fetched.Load() {
			missSelf = append(missSelf, float64(self[op.client]))
			fetch = append(fetch, float64(op.fetchNs.Load()))
			brokerFetch = append(brokerFetch, float64(op.brokerFetchNs.Load()))
		} else {
			hit = append(hit, float64(op.end.Sub(op.send).Nanoseconds()))
		}
	}
	l.set("broker.publish_us", medianUs(brokerSelf), "us")
	l.set("broker.fetch_us", medianUs(brokerFetch), "us")
	l.set("broker.subscribe_us", medianUs(tr.subscribe), "us")
	l.set("proxy.request_hit_us", medianUs(hit), "us")
	l.set("proxy.request_miss_us", medianUs(missSelf), "us")
	l.set("proxy.origin_fetch_us", medianUs(fetch), "us")
	l.set("client.publish_rtt_us", medianUs(rtt), "us")
	l.set("transport.publish_overhead_us", medianUs(overhead), "us")
	var notes []liveNote
	var lags, paths []float64
	for _, op := range pubs {
		op.mu.Lock()
		if len(op.enqueued) != len(op.receipts) {
			out.fail("publish %d: %d notifications enqueued, %d received", op.k, len(op.enqueued), len(op.receipts))
		}
		for i := 0; i < len(op.enqueued) && i < len(op.receipts); i++ {
			notes = append(notes, liveNote{op, op.enqueued[i], op.receipts[i]})
			lags = append(lags, float64(op.receipts[i].Sub(op.end).Nanoseconds()))
			paths = append(paths, float64(op.receipts[i].Sub(op.enqueued[i]).Nanoseconds()))
		}
		op.mu.Unlock()
	}
	l.set("transport.notify_lag_us", medianUs(lags), "us")
	l.set("transport.notify_path_us", medianUs(paths), "us")

	var pushNs int64
	for _, op := range pubs {
		pushNs += op.corePushNs.Load()
	}
	fmt.Print(ladder("live_news publish -> notification", len(notes),
		func(i int) int64 { return notes[i].receipt.Sub(notes[i].op.due).Nanoseconds() },
		[]ladderRow{
			{"loadgen: due -> sent", func(i int) int64 { return notes[i].op.send.Sub(notes[i].op.due).Nanoseconds() }},
			{"client + loopback: sent -> broker entry", func(i int) int64 {
				return notes[i].op.brokerStart.Sub(notes[i].op.send).Nanoseconds()
			}},
			{"broker: entry -> notification enqueued", func(i int) int64 {
				return notes[i].enqueued.Sub(notes[i].op.brokerStart).Nanoseconds()
			}},
			{"conn writer + loopback + client read", func(i int) int64 {
				return notes[i].receipt.Sub(notes[i].enqueued).Nanoseconds()
			}},
		}, out))
	if len(pubs) > 0 {
		fmt.Printf("  (off the delivery path: proxy placement after the fan-out, %.1f us per publish;\n"+
			"   match.match_ns from the replica engine, %.1f us per publish, is inside the broker row)\n",
			float64(pushNs)/float64(len(pubs))/1e3, l["match.match_ns"].Value/1e3)
	}
	fmt.Print(ladder("live_news request", len(reqs),
		func(i int) int64 { return reqs[i].end.Sub(reqs[i].due).Nanoseconds() },
		[]ladderRow{
			{"loadgen: due -> sent", func(i int) int64 { return reqs[i].send.Sub(reqs[i].due).Nanoseconds() }},
			{"proxy: request self time", func(i int) int64 { return self[reqs[i].client] }},
			{"core: placement (Request)", func(i int) int64 { return reqs[i].coreReqNs.Load() }},
			{"transport: origin fetch round trip", func(i int) int64 {
				return reqs[i].fetchNs.Load() - reqs[i].brokerFetchNs.Load()
			}},
			{"broker: fetch", func(i int) int64 { return reqs[i].brokerFetchNs.Load() }},
		}, out))
	return nil
}

// traceMatch times the matching engine on a replica built with
// live_news's subscriptions and replaying its publications, and times
// subscribe/unsubscribe on one holding cluster_fanout's fan-out.
func traceMatch(in *liveInput, l layerOut) {
	e := match.NewEngine()
	for page, row := range in.w.Subscriptions {
		for proxy, n := range row {
			for i := 0; i < int(n); i++ {
				_, _ = e.Subscribe(match.Subscription{Proxy: proxy, Topics: in.topics[page], Keywords: in.keywords[page]})
			}
		}
	}
	var refs []match.MatchRef
	var total time.Duration
	matched := 0
	for _, p := range in.w.Publications {
		ev := match.Event{ID: in.ids[p.Page], Topics: in.topics[p.Page], Keywords: in.keywords[p.Page]}
		t := time.Now()
		refs = e.AppendMatchRefs(refs[:0], ev)
		total += time.Since(t)
		matched += len(refs)
	}
	events := float64(len(in.w.Publications))
	l.set("match.match_ns", float64(total.Nanoseconds())/events, "ns")
	l.set("match.matched_per_event", float64(matched)/events, "count")

	f := match.NewEngine()
	topics := []string{"hot-0", "hot-1"}
	for i := 0; i < fanoutSubs; i++ {
		_, _ = f.Subscribe(match.Subscription{Proxy: i, Topics: topics[i%fanoutTopics : i%fanoutTopics+1]})
	}
	const pairs = 4096
	var sub, unsub time.Duration
	for i := 0; i < pairs; i++ {
		t0 := time.Now()
		id, err := f.Subscribe(match.Subscription{Proxy: fanoutSubs, Topics: topics[i%fanoutTopics : i%fanoutTopics+1], Keywords: []string{churnKeyword}})
		t1 := time.Now()
		if err == nil {
			_ = f.Unsubscribe(id)
		}
		sub += t1.Sub(t0)
		unsub += time.Since(t1)
	}
	l.set("match.subscribe_ns", float64(sub.Nanoseconds())/pairs, "ns")
	l.set("match.unsubscribe_ns", float64(unsub.Nanoseconds())/pairs, "ns")
}

// fanoutTrace is the traced cluster_fanout run's state: per-client
// codec and connection counters and the call timings.
type fanoutTrace struct {
	on                 atomic.Bool
	pubCodec, subCodec codecTimes
	pubConn, subConn   connTimes

	mu            sync.Mutex
	rtt           []float64
	subscribe     []float64
	unsubscribe   []float64
	notifyLag     *hist
	notifications int64
}

// completed records a finished publish; the caller holds the system's
// lock.
func (tr *fanoutTrace) completed(rec *fanRec) {
	if !tr.on.Load() {
		return
	}
	tr.mu.Lock()
	tr.rtt = append(tr.rtt, float64(rec.resp.Sub(rec.sent).Nanoseconds()))
	for _, r := range rec.receipts {
		tr.notifyLag.add(r.Sub(rec.resp).Nanoseconds())
	}
	tr.notifications += int64(len(rec.receipts))
	tr.mu.Unlock()
}

func (tr *fanoutTrace) churned(sub, unsub time.Duration) {
	if tr.on.Load() {
		tr.mu.Lock()
		tr.subscribe = append(tr.subscribe, float64(sub.Nanoseconds()))
		tr.unsubscribe = append(tr.unsubscribe, float64(unsub.Nanoseconds()))
		tr.mu.Unlock()
	}
}

// traceFanout attributes cluster_fanout to the client, codec,
// transport and cluster layers, with an untraced segment first.
func traceFanout(seed int64, seg time.Duration, out *outcome) error {
	l := layerOut(out.metrics)
	tr := &fanoutTrace{notifyLag: newHist()}
	fs, err := startFanout(seed, tr)
	if err != nil {
		return err
	}
	defer fs.close()

	n := int(seg.Seconds() * fanoutRate)
	settle()
	rt0 := readRuntime()
	plain := fs.drive(n)
	runtimeDelta(rt0, readRuntime(), plain.publishes, "cluster_fanout", l)

	fs.mu.Lock()
	fs.hopA, fs.hopB = newHist(), newHist()
	fs.mu.Unlock()
	pubEnc0, pubEncNs0 := tr.pubCodec.encodes.Load(), tr.pubCodec.encodeNs.Load()
	subDec0, subDecNs0 := tr.subCodec.decodes.Load(), tr.subCodec.decodeNs.Load()
	reads0, bytes0 := tr.subConn.reads.Load(), tr.subConn.bytesIn.Load()
	tr.on.Store(true)
	settle()
	traced := fs.drive(n)
	tr.on.Store(false)
	out.attempted += plain.publishes + traced.publishes + 2*(plain.churns+traced.churns)
	out.failed += plain.pubFailed + traced.pubFailed + 2*(plain.churnFails+traced.churnFails)
	out.late += plain.pubLate + traced.pubLate
	fs.check(out)

	fs.mu.Lock()
	defer fs.mu.Unlock()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	l.set("client.publish_rtt_us.cluster_fanout", medianUs(tr.rtt), "us")
	l.set("client.subscribe_rtt_us", medianUs(tr.subscribe), "us")
	l.set("client.unsubscribe_rtt_us", medianUs(tr.unsubscribe), "us")
	l.set("transport.notify_lag_p99_us.cluster_fanout", tr.notifyLag.quantile(0.99)/1e3, "us")
	decodes := tr.subCodec.decodes.Load() - subDec0
	if reads := tr.subConn.reads.Load() - reads0; reads > 0 {
		l.set("transport.frames_per_read", float64(decodes)/float64(reads), "count")
	}
	if tr.notifications > 0 {
		l.set("transport.bytes_per_notify", float64(tr.subConn.bytesIn.Load()-bytes0)/float64(tr.notifications), "B")
	}
	if enc := tr.pubCodec.encodes.Load() - pubEnc0; enc > 0 {
		l.set("codec.encode_ns", float64(tr.pubCodec.encodeNs.Load()-pubEncNs0)/float64(enc), "ns")
	}
	if decodes > 0 {
		l.set("codec.decode_ns", float64(tr.subCodec.decodeNs.Load()-subDecNs0)/float64(decodes), "ns")
	}
	l.set("cluster.hop_us", (fs.hopB.quantile(0.5)-fs.hopA.quantile(0.5))/1e3, "us")
	plainOps := float64(plain.completed) / plain.elapsed.Seconds()
	tracedOps := float64(traced.completed) / traced.elapsed.Seconds()
	l.set("trace.overhead_ops.cluster_fanout", tracedOps/plainOps, "x")
	l.set("trace.overhead_cpu.cluster_fanout",
		(traced.cpu.Seconds()/float64(traced.publishes))/(plain.cpu.Seconds()/float64(plain.publishes)), "x")
	return nil
}
