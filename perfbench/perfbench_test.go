package main

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/core"
	"pubsubcd/internal/sim"
)

func TestHistQuantileWithinResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := newHist()
	var xs []int64
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 1e6)
		xs = append(xs, v)
		h.add(v)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := float64(xs[int(q*float64(len(xs)))-1])
		if got := h.quantile(q); got < exact*0.99 || got > exact*1.01 {
			t.Errorf("q%g = %.0f, exact %.0f", q, got, exact)
		}
	}
	if h.n != int64(len(xs)) {
		t.Errorf("count %d, want %d", h.n, len(xs))
	}
}

func TestHistExactBelowLinearRange(t *testing.T) {
	for _, v := range []int64{0, 1, 200, 255} {
		h := newHist()
		h.add(v)
		if got := h.quantile(0.5); got != float64(v) {
			t.Errorf("single sample %d reads %g", v, got)
		}
	}
	for v := int64(256); v < 1<<40; v = v*3 + 7 {
		if mid := histMid(histIndex(v)); mid < float64(v)*0.99 || mid > float64(v)*1.01 {
			t.Errorf("value %d lands in a bucket with midpoint %g", v, mid)
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int64{9, 100, 1000, 5000, 100000} {
		h := newHist()
		for i := int64(1); i <= n; i++ {
			h.add(i * 997)
		}
		q, ok := h.tail()
		if n < 10 {
			if ok {
				t.Errorf("n=%d: tail p%g reported from fewer than ten samples", n, q*100)
			}
			continue
		}
		if !ok || h.beyond(q) < 10 {
			t.Errorf("n=%d: tail p%g leaves %d samples beyond it", n, q*100, h.beyond(q))
		}
		for _, higher := range tailCandidates {
			if higher > q && h.beyond(higher) >= 10 {
				t.Errorf("n=%d: reported p%g although p%g leaves ten samples", n, q*100, higher*100)
			}
		}
		if h.n != n {
			t.Errorf("sample count %d, want %d", h.n, n)
		}
	}
}

func TestOpenLoopStallMakesLaterOpsLate(t *testing.T) {
	const period = 2 * time.Millisecond
	const stall = 30 * time.Millisecond
	lateness := make([]time.Duration, 20)
	openLoop(time.Now().Add(time.Millisecond), len(lateness), period, func(i int, due, send time.Time) {
		lateness[i] = send.Sub(due)
		if i == 3 {
			time.Sleep(stall)
		}
	})
	// Ops 4.. were due every 2 ms after op 3 but could only start once
	// it returned, so each is late by the stall minus its own offset.
	for i := 4; i < 4+int(stall/period)-2; i++ {
		if want := stall - time.Duration(i-3)*period; lateness[i] < want {
			t.Errorf("op %d late by %v, want at least %v", i, lateness[i], want)
		}
	}
	if lateness[2] >= stall {
		t.Errorf("op 2 before the stall was late by %v", lateness[2])
	}
}

func TestDecoratedSimEqualsPlain(t *testing.T) {
	in, err := buildSimInput(3, 50)
	if err != nil {
		t.Fatal(err)
	}
	factories, err := lookupStrategies()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range factories {
		plain, err := sim.Run(in.w, f, in.options(0))
		if err != nil {
			t.Fatal(err)
		}
		var times []*strategyTimes
		decorated, err := sim.Run(in.w, timedFactory(f, &times, nil, nil), in.options(0))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, decorated) {
			t.Errorf("%s: decorated run differs from the plain one", f.Name)
		}
		var calls int64
		for _, st := range times {
			calls += st.pushes.Load() + st.requests.Load()
		}
		if len(times) != in.w.Config.Servers || calls == 0 {
			t.Errorf("%s: %d timed instances, %d calls", f.Name, len(times), calls)
		}
	}
}

func TestStrategyDecoratorKeepsOptionalInterfaces(t *testing.T) {
	for _, name := range []string{"GD*", "DC-LAP"} {
		f, err := core.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := f.New(core.Params{Capacity: 1 << 20, Beta: 2})
		if err != nil {
			t.Fatal(err)
		}
		d := (&timedStrategy{inner: s, t: &strategyTimes{}}).decorate()
		_, innerStats := s.(core.StatsProvider)
		_, outerStats := d.(core.StatsProvider)
		_, innerPC := s.(pcFraction)
		_, outerPC := d.(pcFraction)
		if innerStats != outerStats || innerPC != outerPC {
			t.Errorf("%s: StatsProvider %v→%v, PCFraction %v→%v", name, innerStats, outerStats, innerPC, outerPC)
		}
	}
}

// fullBackend implements every optional interface the server looks for.
type fullBackend struct {
	broker.Backend
	handoffs int
}

func (*fullBackend) Durable() bool                   { return true }
func (*fullBackend) CheckRing(v uint64, p int) error { return broker.StaleRingError("v%d p%d", v, p) }
func (*fullBackend) RingVersion() uint64             { return 42 }
func (b *fullBackend) ReceiveHandoff(context.Context, int, uint64, []byte) error {
	b.handoffs++
	return nil
}

func TestBackendDecoratorForwardsOptionalInterfaces(t *testing.T) {
	full := &fullBackend{Backend: broker.New()}
	d := &timedBackend{inner: full}
	if !d.Durable() || d.RingVersion() != 42 || !broker.IsStaleRing(d.CheckRing(1, 2)) {
		t.Error("optional interfaces of a full backend were not forwarded")
	}
	if err := d.ReceiveHandoff(context.Background(), 0, 1, nil); err != nil || full.handoffs != 1 {
		t.Errorf("handoff not forwarded: %v", err)
	}

	// A plain broker has Durable only; the decorator answers the others
	// as the server treats a backend without them.
	p := &timedBackend{inner: broker.New()}
	if p.Durable() || p.RingVersion() != 0 || p.CheckRing(5, 1) != nil {
		t.Error("plain broker decorated with non-neutral ring answers")
	}
	if err := p.ReceiveHandoff(context.Background(), 0, 1, nil); err == nil || !strings.Contains(err.Error(), "does not accept partition handoffs") {
		t.Errorf("handoff to a plain broker: %v", err)
	}
}

func TestCodecAndFetcherDecoratorsForward(t *testing.T) {
	ct := &codecTimes{}
	c := &timedCodec{inner: broker.BinaryCodec(), t: ct}
	if c.Name() != broker.BinaryCodec().Name() {
		t.Fatalf("codec name %q", c.Name())
	}
	frame, err := c.AppendFrame(nil, &broker.Message{Type: "publish", ID: "p1", Version: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := broker.BinaryCodec().AppendFrame(nil, &broker.Message{Type: "publish", ID: "p1", Version: 3})
	if string(frame) != string(want) || ct.encodes.Load() != 1 {
		t.Error("decorated codec encodes differently")
	}

	b := broker.New()
	if _, err := b.Publish(broker.Content{ID: "p1", Body: []byte("body")}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	f := &timedFetcher{inner: b, onFetch: func(start, end time.Time) { calls++ }}
	got, err := f.Fetch("p1")
	if err != nil || string(got.Body) != "body" || calls != 1 {
		t.Errorf("fetch through decorator: %q %v, %d timed calls", got.Body, err, calls)
	}
}

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	if self[1] != 100-40-10 {
		t.Errorf("parent self %d, want 50", self[1])
	}
	if self[3] != 30-10 {
		t.Errorf("child self %d, want 20", self[3])
	}
}

func TestLadderFailsWhenALayerIsMissing(t *testing.T) {
	a := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	b := []int64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	total := func(i int) int64 { return (a[i] + b[i]) * 1e3 }
	rows := []ladderRow{
		{"a", func(i int) int64 { return a[i] * 1e3 }},
		{"b", func(i int) int64 { return b[i] * 1e3 }},
	}
	ok := &outcome{}
	ladder("complete", len(a), total, rows, ok)
	if len(ok.problems) != 0 {
		t.Errorf("complete ladder failed: %v", ok.problems)
	}
	bad := &outcome{}
	ladder("missing", len(a), func(i int) int64 { return total(i) + 50e3 }, rows, bad)
	if len(bad.problems) == 0 {
		t.Error("ladder missing a 50 us layer passed")
	}
}

// TestDecoratedLiveEqualsPlain replays the start of live_news on a plain
// and a traced system and compares every proxy's counters.
func TestDecoratedLiveEqualsPlain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two live systems")
	}
	const ops = 600
	stats := func(tr *liveTrace) []broker.ProxyStats {
		in, err := buildLiveInput(5)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := startLive(in, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer ls.close()
		if tr != nil {
			tr.on.Store(true)
		}
		res := ls.drive(ops)
		if res.reqFailed+res.pubFailed+res.missing != 0 {
			t.Fatalf("failed ops: %+v", res)
		}
		check := &outcome{}
		ls.check(check, res.requests)
		if len(check.problems) != 0 {
			t.Fatal(check.problems)
		}
		var out []broker.ProxyStats
		for _, p := range ls.proxies {
			out = append(out, p.Stats())
		}
		return out
	}
	tr := newLiveTrace(newRecorder())
	plain, traced := stats(nil), stats(tr)
	if !reflect.DeepEqual(plain, traced) {
		t.Error("decorated live_news proxies counted differently from plain ones")
	}
	if tr.strat.pushes.Load() == 0 || len(tr.ops) != ops {
		t.Errorf("traced run timed %d pushes over %d ops", tr.strat.pushes.Load(), len(tr.ops))
	}
}

func TestFanoutChurnLeavesRegistryUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a two-node cluster")
	}
	fs, err := startFanout(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.close()
	res := fs.drive(60)
	if res.publishes == 0 || res.churns == 0 || res.pubFailed+res.churnFails != 0 {
		t.Fatalf("closed loop: %+v", res)
	}
	out := &outcome{}
	fs.check(out)
	if len(out.problems) != 0 {
		t.Fatal(out.problems)
	}
	// A leftover churn subscription must be caught by the check.
	if _, err := fs.sub.Subscribe(context.Background(), fanoutSubs, []string{fs.topics[0]}, []string{churnKeyword}); err != nil {
		t.Fatal(err)
	}
	leaky := &outcome{}
	fs.check(leaky)
	if len(leaky.problems) == 0 {
		t.Error("a leftover churn subscription passed the registry check")
	}
}
