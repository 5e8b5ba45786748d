package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/cluster"
)

const (
	// fanoutSubs is the subscriber's stable fan-out at node B, spread
	// evenly over fanoutTopics hot topics owned by node A, so each
	// publish sends fanoutSubs/fanoutTopics notifications across the
	// relay hop.
	fanoutSubs   = 2048
	fanoutTopics = 2
	// fanoutRate is the open loop's offered rate in publishes per
	// second, sized by the rule in NOTES.md ("Load shape and sizing").
	fanoutRate = 150
	// fanoutChurnEvery interleaves one subscribe/unsubscribe pair
	// through B per this many publishes.
	fanoutChurnEvery = 4
	// fanoutBody is the publish body size in bytes.
	fanoutBody = 512
	// fanoutPage is the page every publish carries a new version of.
	fanoutPage = "fan"
	// churnKeyword is carried by churn subscriptions and by no regular
	// publish: churn writes the hot topics' posting lists without
	// adding notifications.
	churnKeyword = "churn"
)

// fanRec tracks one publish until the control subscription and every
// stable subscription on its topic have been notified.
type fanRec struct {
	topic           int
	due, sent, resp time.Time
	expected        int // -1 until the publish response arrives
	got             int
	control, late   bool
	failed          bool
	receipts        []time.Time // kept when traced
}

// fanoutSystem is a two-node cluster: the publisher on node A, which
// owns the hot topics, and the subscriber on node B, so every
// notification crosses one relay hop.
type fanoutSystem struct {
	a, b     *cluster.Node
	pub, sub *broker.Client
	topics   []string
	body     []byte
	tr       *fanoutTrace // nil when untraced
	version  int          // last version published; generator-owned

	mu       sync.Mutex
	subTopic []int // client subscription ID → topic, -1 for none
	lastVer  []int // client subscription ID → last version notified
	pending  map[int]*fanRec
	drained  chan struct{} // closed when draining and nothing is pending
	// counters below are guarded by mu.
	hopB, hopA *hist // delivery at B, control delivery at A
	// stray counts stale, duplicate or misrouted notifications; wrong
	// counts publishes whose matched count was not the fan-out's.
	stray, wrong      int64
	failed, completed int64
	late              int64 // completed, but delivered after the SLO
	lastDone          time.Time
}

// startFanout builds and converges the cluster and registers the
// fan-out. It returns once every subscription is acknowledged and both
// connections have seen a notification.
func startFanout(seed int64, tr *fanoutTrace) (*fanoutSystem, error) {
	fs := &fanoutSystem{
		subTopic: make([]int, fanoutSubs+2),
		lastVer:  make([]int, fanoutSubs+2),
		pending:  make(map[int]*fanRec),
		hopA:     newHist(),
		hopB:     newHist(),
		tr:       tr,
		body:     make([]byte, fanoutBody),
		version:  -1,
	}
	for i := range fs.body {
		fs.body[i] = byte(seed + int64(i))
	}
	for i := range fs.subTopic {
		fs.subTopic[i], fs.lastVer[i] = -1, -1
	}
	ok := false
	defer func() {
		if !ok {
			fs.close()
		}
	}()
	if err := fs.startNodes(); err != nil {
		return nil, err
	}
	ring := fs.a.Ring()
	for i := 0; len(fs.topics) < fanoutTopics; i++ {
		t := fmt.Sprintf("hot-%d-%d", seed, i)
		if ring.Owner(ring.PartitionOf(t)) == fs.a.NodeID() {
			fs.topics = append(fs.topics, t)
		}
	}
	pubOpts := []broker.ClientOption{broker.WithNotify(fs.onControl)}
	subOpts := []broker.ClientOption{broker.WithNotify(fs.onNotify)}
	if tr != nil {
		pubOpts = append(pubOpts, instrumentedClient(&tr.pubCodec, &tr.pubConn)...)
		subOpts = append(subOpts, instrumentedClient(&tr.subCodec, &tr.subConn)...)
	}
	ctx := context.Background()
	var err error
	if fs.pub, err = broker.Dial(ctx, fs.a.Addr(), pubOpts...); err != nil {
		return nil, err
	}
	if fs.sub, err = broker.Dial(ctx, fs.b.Addr(), subOpts...); err != nil {
		return nil, err
	}
	if err := fs.subscribeAll(ctx); err != nil {
		return nil, err
	}
	if _, err := fs.pub.Subscribe(ctx, 0, fs.topics, nil); err != nil {
		return nil, err
	}
	// Warm-up: one publish per hot topic, complete like any other.
	for t := range fs.topics {
		now := time.Now()
		if err := fs.publish(ctx, t, nil, now, now); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if missing := fs.drain(); missing > 0 {
		return nil, fmt.Errorf("warm-up: %d publishes missing notifications", missing)
	}
	ok = true
	return fs, nil
}

// startNodes starts nodes A and B with the heartbeat loop off and
// drives ProbeOnce until both rings list both members at one version.
func (fs *fanoutSystem) startNodes() error {
	peers := map[string]string{}
	lns := map[string]net.Listener{}
	for _, id := range []string{"a", "b"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		peers[id], lns[id] = ln.Addr().String(), ln
	}
	start := func(id string) (*cluster.Node, error) {
		return cluster.Start(cluster.Config{
			NodeID: id, Addr: peers[id], Listener: lns[id], Peers: peers,
			HeartbeatInterval: -1,
		})
	}
	var err error
	if fs.a, err = start("a"); err != nil {
		_ = lns["b"].Close()
		return err
	}
	if fs.b, err = start("b"); err != nil {
		return err
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		fs.a.ProbeOnce(ctx)
		fs.b.ProbeOnce(ctx)
		ra, rb := fs.a.Ring(), fs.b.Ring()
		if ra.Version() == rb.Version() && len(ra.Members()) == 2 && len(rb.Members()) == 2 {
			return nil
		}
	}
	return fmt.Errorf("cluster did not converge")
}

// subscribeAll registers the stable fan-out through B from two
// goroutines, subscription i on hot topic i mod fanoutTopics.
func (fs *fanoutSystem) subscribeAll(ctx context.Context) error {
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			for i := g; i < fanoutSubs; i += 2 {
				t := i % fanoutTopics
				id, err := fs.sub.Subscribe(ctx, i, []string{fs.topics[t]}, nil)
				if err == nil && (id <= 0 || int(id) >= len(fs.subTopic)) {
					err = fmt.Errorf("unexpected subscription ID %d", id)
				}
				if err != nil {
					errs <- err
					return
				}
				fs.mu.Lock()
				fs.subTopic[id] = t
				fs.mu.Unlock()
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

func (fs *fanoutSystem) close() {
	for _, c := range []*broker.Client{fs.pub, fs.sub} {
		if c != nil {
			_ = c.Close()
		}
	}
	for _, n := range []*cluster.Node{fs.b, fs.a} {
		if n != nil {
			_ = n.Close()
		}
	}
}

// onNotify runs on the subscriber client's read loop at node B.
func (fs *fanoutSystem) onNotify(n broker.Notification) {
	now := time.Now()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rec := fs.pending[n.Version]
	sid := n.SubscriptionID
	if rec == nil || n.PageID != fanoutPage || sid <= 0 || sid >= int64(len(fs.subTopic)) ||
		fs.subTopic[sid] != rec.topic || fs.lastVer[sid] >= n.Version {
		fs.stray++
		return
	}
	fs.lastVer[sid] = n.Version
	rec.got++
	lat := now.Sub(rec.due)
	fs.hopB.add(lat.Nanoseconds())
	if lat > broker.DefaultPublishSLO {
		rec.late = true
	}
	if fs.tr != nil && fs.tr.on.Load() {
		rec.receipts = append(rec.receipts, now)
	}
	fs.maybeDone(n.Version, rec, now)
}

// onControl runs on the publisher client's read loop at node A.
func (fs *fanoutSystem) onControl(n broker.Notification) {
	now := time.Now()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rec := fs.pending[n.Version]
	if rec == nil || n.PageID != fanoutPage || rec.control {
		fs.stray++
		return
	}
	rec.control = true
	fs.hopA.add(now.Sub(rec.due).Nanoseconds())
	fs.maybeDone(n.Version, rec, now)
}

// maybeDone retires a publish whose notifications have all arrived.
// Caller holds fs.mu.
func (fs *fanoutSystem) maybeDone(version int, rec *fanRec, now time.Time) {
	if !rec.control || rec.expected < 0 || rec.got < rec.expected {
		return
	}
	switch {
	case rec.got > rec.expected || rec.failed:
		fs.failed++
	case rec.late:
		fs.late++
	}
	if fs.tr != nil {
		fs.tr.completed(rec)
	}
	delete(fs.pending, version)
	fs.completed++
	if now.After(fs.lastDone) {
		fs.lastDone = now
	}
	if fs.drained != nil && len(fs.pending) == 0 {
		close(fs.drained)
		fs.drained = nil
	}
}

// publish sends the next version of the page on hot topic t. It
// returns once the publish is answered; the notifications are counted
// as they arrive. keywords, when set, are the publish's keywords.
func (fs *fanoutSystem) publish(ctx context.Context, t int, keywords []string, due, send time.Time) error {
	fs.version++
	version := fs.version
	rec := &fanRec{topic: t, due: due, sent: send, expected: -1}
	fs.mu.Lock()
	fs.pending[version] = rec
	fs.mu.Unlock()
	matched, err := fs.pub.Publish(ctx, broker.Content{
		ID: fanoutPage, Version: version, Topics: []string{fs.topics[t]}, Keywords: keywords, Body: fs.body,
	})
	resp := time.Now()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err != nil {
		delete(fs.pending, version)
		fs.failed++
		fs.completed++
		return err
	}
	want := fanoutSubs / fanoutTopics
	rec.resp, rec.expected = resp, want
	if matched != want+1 {
		fs.wrong++
		rec.failed = true
	}
	fs.maybeDone(version, rec, resp)
	return nil
}

// drain waits for every pending publish to complete and returns how
// many were still missing notifications after drainTimeout; those are
// dropped, and their late notifications count as stray.
func (fs *fanoutSystem) drain() (missing int64) {
	fs.mu.Lock()
	if len(fs.pending) > 0 {
		drained := make(chan struct{})
		fs.drained = drained
		fs.mu.Unlock()
		select {
		case <-drained:
		case <-time.After(drainTimeout):
		}
		fs.mu.Lock()
		fs.drained = nil
	}
	for v := range fs.pending {
		delete(fs.pending, v)
		missing++
	}
	fs.mu.Unlock()
	return missing
}

// churn subscribes and unsubscribes one never-matching subscription on
// hot topic t through B.
func (fs *fanoutSystem) churn(ctx context.Context, t int) error {
	t0 := time.Now()
	id, err := fs.sub.Subscribe(ctx, fanoutSubs, []string{fs.topics[t]}, []string{churnKeyword})
	t1 := time.Now()
	if err != nil {
		return err
	}
	err = fs.sub.Unsubscribe(ctx, id)
	if fs.tr != nil {
		fs.tr.churned(t1.Sub(t0), time.Since(t1))
	}
	return err
}

// fanoutResult is what one timed phase measured.
type fanoutResult struct {
	publishes, churns     int64
	pubFailed, churnFails int64
	pubLate               int64
	missing, completed    int64
	elapsed, cpu          time.Duration
	late                  *hist
	errs                  []error
}

// drive publishes n times at fanoutRate from one generator thread, each
// publish on the next hot topic in turn, with a churn pair through B
// after every fanoutChurnEvery-th publish. Deliveries are timed from
// each publish's due time.
func (fs *fanoutSystem) drive(n int) *fanoutResult {
	res := &fanoutResult{}
	ctx := context.Background()
	fs.mu.Lock()
	failed0, late0, completed0 := fs.failed, fs.late, fs.completed
	fs.mu.Unlock()
	cpu0 := cpuTime()
	t0 := time.Now().Add(time.Millisecond)
	res.late = openLoop(t0, n, time.Second/fanoutRate, func(i int, due, send time.Time) {
		res.publishes++
		if err := fs.publish(ctx, i%fanoutTopics, nil, due, send); err != nil {
			res.errs = append(res.errs, err)
		}
		if i%fanoutChurnEvery == 0 {
			res.churns++
			if err := fs.churn(ctx, i/fanoutChurnEvery%fanoutTopics); err != nil {
				res.churnFails++
				res.errs = append(res.errs, err)
			}
		}
	})
	res.missing = fs.drain()
	res.cpu = cpuTime() - cpu0
	fs.mu.Lock()
	res.pubFailed = fs.failed - failed0 + res.missing
	res.pubLate = fs.late - late0
	res.completed = fs.completed - completed0
	res.elapsed = fs.lastDone.Sub(t0)
	fs.mu.Unlock()
	return res
}

// check verifies that churn left the registry as it found it: the
// subscriber holds its stable fan-out, and a publish carrying the churn
// keyword matches the stable subscriptions and the control one only.
func (fs *fanoutSystem) check(out *outcome) {
	if n := fs.sub.Subscriptions(); n != fanoutSubs {
		out.fail("subscriber holds %d subscriptions after churn, want %d", n, fanoutSubs)
	}
	now := time.Now()
	if err := fs.publish(context.Background(), 0, []string{churnKeyword}, now, now); err != nil {
		out.fail("post-churn publish: %v", err)
	}
	if missing := fs.drain(); missing > 0 {
		out.fail("post-churn publish: notifications missing")
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.stray > 0 || fs.wrong > 0 {
		out.fail("%d stray, stale or duplicate notifications; %d publishes matched the wrong count", fs.stray, fs.wrong)
	}
}

func runClusterFanout(cfg config) (*outcome, error) {
	fs, setup, err := repeatSetup(func() (*fanoutSystem, error) { return startFanout(cfg.seed, nil) }, (*fanoutSystem).close)
	if err != nil {
		return nil, err
	}
	defer fs.close()
	settle()
	res := fs.drive(cfg.seconds * fanoutRate)
	heap := liveHeapMiB()
	out := &outcome{
		attempted: res.publishes + 2*res.churns,
		failed:    res.pubFailed + 2*res.churnFails,
		late:      res.pubLate,
	}
	for i, err := range res.errs {
		if i < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: cluster_fanout: %v\n", err)
		}
	}
	if res.pubFailed+res.pubLate > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: cluster_fanout: %d publishes failed (%d missing notifications), %d delivered later than %v\n",
			res.pubFailed, res.missing, res.pubLate, broker.DefaultPublishSLO)
	}
	fs.check(out)
	out.metrics = map[string]metric{
		"ops_per_s":     {float64(res.completed) / res.elapsed.Seconds(), "1/s"},
		"cpu_us_per_op": {float64(res.cpu.Microseconds()) / float64(res.publishes), "us"},
		"heap_mb":       {heap, "MiB"},
	}
	out.setupMetrics(setup)
	out.failRatioRow()
	fs.mu.Lock()
	out.latencyRows("deliver", fs.hopB)
	out.latencyRows("control_deliver", fs.hopA)
	fs.mu.Unlock()
	out.rows = append(out.rows,
		row{"churn_pairs", "count", float64(res.churns), res.churns},
		row{"loadgen.late_p99_us", "us", res.late.quantile(0.99) / 1e3, res.late.n})
	return out, nil
}
