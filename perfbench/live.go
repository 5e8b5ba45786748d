package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/core"
	"pubsubcd/internal/topology"
	"pubsubcd/internal/workload"
)

const (
	// liveScale shrinks the NEWS trace to 600 pages, 3 014 publications,
	// 19 500 requests and 19 500 end-user subscriptions over 100 proxies.
	liveScale = 10
	// liveSections is the number of topics. Every subscription names its
	// page's section and the page's keyword, so a publish touches about
	// 1/16 of all subscriptions as candidates and matches only those of
	// its own page.
	liveSections = 16
	// liveRate is the open loop's offered rate in ops per second, sized
	// by the rule in NOTES.md ("Load shape and sizing").
	liveRate = 800
	// noProxy is the proxy number of the warm-up subscription: no proxy
	// is attached under it, so warm-up never reaches a cache.
	noProxy = 1 << 20
	// drainTimeout bounds the wait for the last notifications after the
	// last op; anything still missing then counts as failed.
	drainTimeout = 10 * time.Second
)

const warmPage = "warm-up"

// liveOp is one entry of the replayed trace: a publication of a page
// version, or a request for a page at a proxy.
type liveOp struct {
	page, version, proxy int32
	publish              bool
}

// liveInput is everything the live_news generator replays, generated from
// the seed before the system is built.
type liveInput struct {
	w        *workload.Workload
	ops      []liveOp
	ids      []string
	topics   [][]string
	keywords [][]string
	bodies   [][]byte
	// versionSpan separates the versions of successive trace passes, so
	// every publish of a page is newer than the last.
	versionSpan int
	costs       []float64
	capacities  []int64
	subs        int
}

func buildLiveInput(seed int64) (*liveInput, error) {
	cfg := workload.ScaledConfig(workload.TraceNEWS, liveScale)
	cfg.Seed = traceSeed
	w, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	costs, err := topology.FetchCosts(cfg.Servers, seed)
	if err != nil {
		return nil, err
	}
	caps, err := w.CacheCapacities(0.05)
	if err != nil {
		return nil, err
	}
	in := &liveInput{w: w, costs: costs, capacities: caps}
	rng := rand.New(rand.NewSource(seed))
	sections := rng.Perm(len(w.Pages))
	for _, p := range w.Pages {
		in.ids = append(in.ids, "p"+strconv.Itoa(p.ID))
		in.topics = append(in.topics, []string{fmt.Sprintf("section-%d", sections[p.ID]%liveSections)})
		in.keywords = append(in.keywords, []string{"page-" + strconv.Itoa(p.ID)})
		body := make([]byte, p.Size)
		fill := byte(rng.Intn(256))
		for i := range body {
			body[i] = fill
		}
		in.bodies = append(in.bodies, body)
		if p.Versions > in.versionSpan {
			in.versionSpan = p.Versions
		}
	}
	// Time order, publications before requests at equal times: the
	// order the simulator replays.
	pubs, reqs := w.Publications, w.Requests
	for i, j := 0, 0; i < len(pubs) || j < len(reqs); {
		if j == len(reqs) || (i < len(pubs) && pubs[i].Time <= reqs[j].Time) {
			in.ops = append(in.ops, liveOp{page: int32(pubs[i].Page), version: int32(pubs[i].Version), publish: true})
			i++
		} else {
			in.ops = append(in.ops, liveOp{page: int32(reqs[j].Page), proxy: int32(reqs[j].Server)})
			j++
		}
	}
	in.subs = int(w.TotalSubscriptions())
	return in, nil
}

// pubRec tracks one publish until every notification it matched has
// arrived.
type pubRec struct {
	idx      int // op number
	due      time.Time
	expected int // -1 until the publish response arrives
	got      int
	late     bool
	failed   bool
}

// liveSystem is the Fig. 1 system as a live service: a broker behind a
// loopback TCP server, one in-process DC-LAP proxy per trace proxy, a
// publisher client (publishes and origin fetches) and a subscriber
// client holding every end-user subscription.
type liveSystem struct {
	in      *liveInput
	brk     *broker.Broker
	srv     *broker.Server
	pub     *broker.Client
	sub     *broker.Client
	proxies []*broker.Proxy
	tr      *liveTrace // nil when untraced
	next    int        // number of trace ops replayed so far

	mu      sync.Mutex
	subPage []int32 // client subscription ID → page
	lastVer []int   // client subscription ID → last version notified
	pending map[int64]*pubRec
	warm    chan struct{}
	drained chan struct{} // closed when draining and nothing is pending
	// counters below are guarded by mu.
	deliver    *hist
	stray, dup int64
	pubFailed  int64
	pubLate    int64 // publishes delivered, some after the SLO
	completed  int64
	lastDone   time.Time
}

func pubKey(page, version int) int64 { return int64(page)<<32 | int64(version) }

// startLive builds the live system and returns once every subscription
// is acknowledged and the subscriber connection has seen a
// notification.
func startLive(in *liveInput, tr *liveTrace) (*liveSystem, error) {
	ls := &liveSystem{
		in:      in,
		brk:     broker.New(),
		tr:      tr,
		subPage: make([]int32, in.subs+2),
		lastVer: make([]int, in.subs+2),
		pending: make(map[int64]*pubRec),
		warm:    make(chan struct{}),
		deliver: newHist(),
	}
	for i := range ls.lastVer {
		ls.lastVer[i] = -1
	}
	ok := false
	defer func() {
		if !ok {
			ls.close()
		}
	}()
	var backend broker.Backend = ls.brk
	if tr != nil {
		backend = tr.backend(ls.brk)
	}
	var err error
	if ls.srv, err = broker.NewServer(backend, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	ctx := context.Background()
	if ls.pub, err = broker.Dial(ctx, ls.srv.Addr()); err != nil {
		return nil, err
	}
	if ls.sub, err = broker.Dial(ctx, ls.srv.Addr(), broker.WithNotify(ls.onNotify)); err != nil {
		return nil, err
	}
	var fetcher broker.Fetcher = ls.pub.Fetcher(0)
	if tr != nil {
		fetcher = tr.fetcher(fetcher)
	}
	for s := range in.costs {
		strat, err := core.NewDCLAP(core.Params{Capacity: in.capacities[s], Beta: 2})
		if err != nil {
			return nil, err
		}
		if tr != nil {
			strat = tr.strategy(strat)
		}
		p, err := broker.NewProxy(s, ls.brk, strat, in.costs[s], broker.WithProxyFetcher(fetcher))
		if err != nil {
			return nil, err
		}
		ls.proxies = append(ls.proxies, p)
	}
	if err := ls.subscribeAll(ctx); err != nil {
		return nil, err
	}
	if _, err := ls.sub.Subscribe(ctx, noProxy, []string{warmPage}, nil); err != nil {
		return nil, err
	}
	warm := ls.warm
	if _, err := ls.pub.Publish(ctx, broker.Content{ID: warmPage, Topics: []string{warmPage}}); err != nil {
		return nil, err
	}
	select {
	case <-warm:
	case <-time.After(drainTimeout):
		return nil, fmt.Errorf("warm-up notification did not arrive")
	}
	ok = true
	return ls, nil
}

// subscribeAll registers Subscriptions[page][proxy] subscriptions per
// pair from two goroutines, each waiting for every acknowledgement.
func (ls *liveSystem) subscribeAll(ctx context.Context) error {
	type pair struct{ page, proxy int }
	var pairs []pair
	for page, row := range ls.in.w.Subscriptions {
		for proxy, n := range row {
			for i := 0; i < int(n); i++ {
				pairs = append(pairs, pair{page, proxy})
			}
		}
	}
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			for i := g; i < len(pairs); i += 2 {
				p := pairs[i]
				id, err := ls.sub.Subscribe(ctx, p.proxy, ls.in.topics[p.page], ls.in.keywords[p.page])
				if err == nil && (id <= 0 || int(id) >= len(ls.subPage)) {
					err = fmt.Errorf("unexpected subscription ID %d", id)
				}
				if err != nil {
					errs <- err
					return
				}
				ls.mu.Lock()
				ls.subPage[id] = int32(p.page)
				ls.mu.Unlock()
			}
			errs <- nil
		}(g)
	}
	var first error
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (ls *liveSystem) close() {
	for _, c := range []*broker.Client{ls.pub, ls.sub} {
		if c != nil {
			_ = c.Close()
		}
	}
	if ls.srv != nil {
		_ = ls.srv.Close()
	}
	for _, p := range ls.proxies {
		_ = p.Close()
	}
}

// onNotify runs on the subscriber client's read loop.
func (ls *liveSystem) onNotify(n broker.Notification) {
	now := time.Now()
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if n.PageID == warmPage {
		if ls.warm != nil {
			close(ls.warm)
			ls.warm = nil
		}
		return
	}
	page, err := strconv.Atoi(n.PageID[1:])
	rec := ls.pending[pubKey(page, n.Version)]
	sid := n.SubscriptionID
	if err != nil || rec == nil || sid <= 0 || sid >= int64(len(ls.subPage)) || int(ls.subPage[sid]) != page {
		ls.stray++
		return
	}
	if ls.lastVer[sid] >= n.Version {
		ls.dup++
		rec.failed = true
		return
	}
	ls.lastVer[sid] = n.Version
	rec.got++
	lat := now.Sub(rec.due)
	ls.deliver.add(lat.Nanoseconds())
	if lat > broker.DefaultPublishSLO {
		rec.late = true
	}
	if ls.tr != nil {
		ls.tr.notified(rec.idx, now)
	}
	ls.maybeDone(pubKey(page, n.Version), rec, now)
}

// maybeDone retires a publish whose notifications have all arrived.
// Caller holds ls.mu.
func (ls *liveSystem) maybeDone(key int64, rec *pubRec, now time.Time) {
	if rec.expected < 0 || rec.got < rec.expected {
		return
	}
	switch {
	case rec.got > rec.expected || rec.failed:
		ls.pubFailed++
	case rec.late:
		ls.pubLate++
	}
	delete(ls.pending, key)
	ls.completed++
	if now.After(ls.lastDone) {
		ls.lastDone = now
	}
	if ls.drained != nil && len(ls.pending) == 0 {
		close(ls.drained)
		ls.drained = nil
	}
}

// liveResult is what one timed phase measured.
type liveResult struct {
	ops, reqFailed, pubFailed, missing int64
	// pubLate counts publishes whose notifications all arrived, some
	// later than broker.DefaultPublishSLO.
	pubLate             int64
	elapsed             time.Duration
	cpu                 time.Duration
	request, late       *hist
	requests, publishes int64
}

// drive replays the next n ops of the trace at liveRate from one
// generator thread. Each op is due at a fixed offset from the start;
// latencies are timed from the due time, so a stalled op makes every
// later op late.
func (ls *liveSystem) drive(n int) *liveResult {
	in := ls.in
	res := &liveResult{ops: int64(n), request: newHist()}
	period := time.Second / liveRate
	ctx := context.Background()
	ls.mu.Lock()
	ls.deliver = newHist()
	failed0, late0 := ls.pubFailed, ls.pubLate
	ls.mu.Unlock()
	from := ls.next
	ls.next += n
	cpu0 := cpuTime()
	t0 := time.Now().Add(time.Millisecond)
	res.late = openLoop(t0, n, period, func(i int, due, send time.Time) {
		k := from + i
		op := in.ops[k%len(in.ops)]
		if op.publish {
			res.publishes++
			ls.publish(ctx, k, op, due, send)
			return
		}
		res.requests++
		if ls.tr != nil {
			ls.tr.beginRequest(k, due, send)
		}
		body, err := ls.proxies[op.proxy].Request(in.ids[op.page])
		done := time.Now()
		if ls.tr != nil {
			ls.tr.endRequest(done)
		}
		res.request.add(done.Sub(due).Nanoseconds())
		if err != nil || len(body) != len(in.bodies[op.page]) {
			res.reqFailed++
		}
		ls.mu.Lock()
		ls.completed++
		if done.After(ls.lastDone) {
			ls.lastDone = done
		}
		ls.mu.Unlock()
	})
	ls.mu.Lock()
	if len(ls.pending) > 0 {
		drained := make(chan struct{})
		ls.drained = drained
		ls.mu.Unlock()
		select {
		case <-drained:
		case <-time.After(drainTimeout):
		}
		ls.mu.Lock()
		ls.drained = nil
	}
	for key := range ls.pending {
		delete(ls.pending, key)
		res.missing++
	}
	res.pubFailed, res.pubLate = ls.pubFailed-failed0, ls.pubLate-late0
	res.elapsed = ls.lastDone.Sub(t0)
	ls.mu.Unlock()
	res.cpu = cpuTime() - cpu0
	return res
}

func (ls *liveSystem) publish(ctx context.Context, k int, op liveOp, due, send time.Time) {
	in := ls.in
	version := k/len(in.ops)*in.versionSpan + int(op.version)
	key := pubKey(int(op.page), version)
	rec := &pubRec{idx: k, due: due, expected: -1}
	ls.mu.Lock()
	ls.pending[key] = rec
	ls.mu.Unlock()
	if ls.tr != nil {
		ls.tr.beginPublish(k, due, send)
	}
	matched, err := ls.pub.Publish(ctx, broker.Content{
		ID: in.ids[op.page], Version: version,
		Topics: in.topics[op.page], Keywords: in.keywords[op.page],
		Body: in.bodies[op.page],
	})
	resp := time.Now()
	if ls.tr != nil {
		ls.tr.endPublish(resp)
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if err != nil {
		delete(ls.pending, key)
		ls.pubFailed++
		ls.completed++
		return
	}
	rec.expected = matched
	ls.maybeDone(key, rec, resp)
}

// check verifies the proxies' accounting after a timed phase: every
// request was counted, and each was served as a hit or by a fetch.
func (ls *liveSystem) check(out *outcome, requests int64) (hits, reqs int64) {
	for _, p := range ls.proxies {
		st := p.Stats()
		hits += st.Hits
		reqs += st.Requests
		if st.Hits+st.Fetches != st.Requests {
			out.fail("proxy %d: %d hits + %d fetches != %d requests", p.ID(), st.Hits, st.Fetches, st.Requests)
		}
	}
	if reqs != requests {
		out.fail("proxies counted %d requests, generator issued %d", reqs, requests)
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.stray > 0 || ls.dup > 0 {
		out.fail("%d stray and %d duplicate notifications", ls.stray, ls.dup)
	}
	return hits, reqs
}

func runLiveNews(cfg config) (*outcome, error) {
	ls, setup, err := repeatSetup(func() (*liveSystem, error) {
		in, err := buildLiveInput(cfg.seed)
		if err != nil {
			return nil, err
		}
		return startLive(in, nil)
	}, (*liveSystem).close)
	if err != nil {
		return nil, err
	}
	defer ls.close()
	settle()
	res := ls.drive(cfg.seconds * liveRate)
	heap := liveHeapMiB()
	out := &outcome{attempted: res.ops, late: res.pubLate}
	out.failed = res.reqFailed + res.pubFailed + res.missing
	hits, reqs := ls.check(out, res.requests)
	ls.mu.Lock()
	deliver := ls.deliver
	completed := ls.completed
	ls.mu.Unlock()
	if res.missing > 0 {
		out.fail("%d publishes still missing notifications after %v", res.missing, drainTimeout)
	}
	if res.reqFailed > 0 {
		out.fail("%d requests failed or returned a body of the wrong size", res.reqFailed)
	}
	if res.pubFailed+res.pubLate > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: live_news: %d publishes failed, %d delivered later than %v\n",
			res.pubFailed, res.pubLate, broker.DefaultPublishSLO)
	}
	out.metrics = map[string]metric{
		"ops_per_s":     {float64(completed) / res.elapsed.Seconds(), "1/s"},
		"cpu_us_per_op": {float64(res.cpu.Microseconds()) / float64(res.ops), "us"},
		"heap_mb":       {heap, "MiB"},
	}
	out.setupMetrics(setup)
	out.failRatioRow()
	out.latencyRows("deliver", deliver)
	out.latencyRows("request", res.request)
	if reqs > 0 {
		out.rows = append(out.rows, row{"hit_ratio", "1", float64(hits) / float64(reqs), reqs})
	}
	out.rows = append(out.rows, row{"loadgen.late_p99_us", "us", res.late.quantile(0.99) / 1e3, res.late.n})
	return out, nil
}
