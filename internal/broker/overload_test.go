package broker

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pubsubcd/internal/broker/faultnet"
	"pubsubcd/internal/telemetry"
)

// The overload-control suite: breaker and admission-controller unit
// tests, the control-lane priority regression, slow-consumer policies
// exercised end to end over real (and faultnet-throttled) connections,
// the resilient client's overload back-off against a stub broker, and
// the chaos tests that pin the tentpole guarantees — one near-dead
// subscriber must not move the publish path or starve healthy
// subscribers, and an overloaded broker sheds work by priority instead
// of falling over. Run under -race.

// rawConn is a raw wire connection speaking JSON frames, for tests
// that need a subscriber the broker cannot tell from a misbehaving
// legacy peer.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	c    Codec
	seq  uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &rawConn{t: t, conn: conn, br: bufio.NewReader(conn), c: JSONCodec()}
}

func (r *rawConn) send(m Message) {
	r.t.Helper()
	r.seq++
	m.Seq = r.seq
	frame, err := r.c.AppendFrame(nil, &m)
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := r.conn.Write(frame); err != nil {
		r.t.Fatalf("raw send: %v", err)
	}
}

func (r *rawConn) read() Message {
	r.t.Helper()
	_ = r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := r.c.ReadFrame(r.br, nil, DefaultMaxFrame)
	if err != nil {
		r.t.Fatalf("raw read: %v", err)
	}
	var m Message
	if err := r.c.DecodeFrame(payload, &m); err != nil {
		r.t.Fatal(err)
	}
	_ = r.conn.SetReadDeadline(time.Time{})
	return m
}

func (r *rawConn) subscribe(topics []string) {
	r.t.Helper()
	r.send(Message{Type: msgSubscribe, Proxy: 1, Topics: topics})
	if resp := r.read(); resp.Error != "" || !resp.OK {
		r.t.Fatalf("subscribe rejected: %+v", resp)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	var mu sync.Mutex
	var seen []BreakerState
	br := NewBreaker(2, 50*time.Millisecond)
	br.OnChange(func(s BreakerState) {
		mu.Lock()
		seen = append(seen, s)
		mu.Unlock()
	})

	if br.State() != BreakerClosed {
		t.Fatalf("initial state %v, want closed", br.State())
	}
	if !br.Allow() {
		t.Fatal("closed breaker must allow")
	}
	br.Failure()
	if br.State() != BreakerClosed {
		t.Fatal("one failure under threshold must not open")
	}
	br.Failure()
	if br.State() != BreakerOpen {
		t.Fatalf("state after %d failures is %v, want open", 2, br.State())
	}
	if br.Allow() {
		t.Fatal("open breaker must fast-fail")
	}

	// After the cooldown exactly one caller gets through as the probe.
	time.Sleep(70 * time.Millisecond)
	if !br.Allow() {
		t.Fatal("half-open breaker must admit one probe")
	}
	if br.State() != BreakerHalfOpen {
		t.Fatalf("state during probe %v, want half-open", br.State())
	}
	if br.Allow() {
		t.Fatal("second concurrent probe must be rejected")
	}

	// A failed probe reopens; a later successful probe closes.
	br.Failure()
	if br.State() != BreakerOpen {
		t.Fatalf("state after failed probe %v, want open", br.State())
	}
	time.Sleep(70 * time.Millisecond)
	if !br.Allow() {
		t.Fatal("breaker must re-probe after second cooldown")
	}
	br.Success()
	if br.State() != BreakerClosed {
		t.Fatalf("state after successful probe %v, want closed", br.State())
	}
	if !br.Allow() {
		t.Fatal("closed breaker must allow again")
	}

	// Intervening successes reset the failure streak.
	br.Failure()
	br.Success()
	br.Failure()
	if br.State() != BreakerClosed {
		t.Fatal("a success must reset the failure streak")
	}

	mu.Lock()
	got := append([]BreakerState(nil), seen...)
	mu.Unlock()
	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(got) != len(want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d is %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestAdmissionControllerWatermarks(t *testing.T) {
	var pending atomic.Int64
	a := newAdmissionController(AdmissionConfig{
		PendingHighBytes: 1000,
		CheckInterval:    2 * time.Millisecond,
	}, &pending)
	defer a.close()

	waitState := func(want string) {
		t.Helper()
		waitFor(t, "admission state "+want, func() bool {
			s, _ := a.snapshot()
			return s == want
		})
	}

	waitState("ok")
	if a.shedNotify() {
		t.Fatal("ok state must not shed notifications")
	}
	if err := a.admitPublish(); err != nil {
		t.Fatalf("ok state must admit publishes: %v", err)
	}
	a.releasePublish()

	// Over the high watermark: notifications shed, publishes still admitted.
	pending.Store(1200)
	waitState("shedding")
	if !a.shedNotify() {
		t.Fatal("shedding state must shed notifications")
	}
	if err := a.admitPublish(); err != nil {
		t.Fatalf("shedding state must still admit publishes: %v", err)
	}
	a.releasePublish()

	// Between the low and high watermarks: hysteresis keeps shedding so
	// the state does not flap around the high mark.
	pending.Store(700)
	time.Sleep(15 * time.Millisecond)
	if s, _ := a.snapshot(); s != "shedding" {
		t.Fatalf("hysteresis: state %q between watermarks, want shedding", s)
	}

	// Below the low watermark: recovered.
	pending.Store(100)
	waitState("ok")

	// At twice the high watermark: publishes rejected with the typed error.
	pending.Store(2500)
	waitState("overloaded")
	err := a.admitPublish()
	if err == nil || !errors.Is(err, ErrOverloaded) || !IsOverloaded(err) {
		t.Fatalf("overloaded state must reject publishes with ErrOverloaded, got %v", err)
	}
	if _, reason := a.snapshot(); reason == "" {
		t.Fatal("overloaded state must carry a reason")
	}

	pending.Store(0)
	waitState("ok")
}

func TestAdmissionInflightLimit(t *testing.T) {
	var pending atomic.Int64
	a := newAdmissionController(AdmissionConfig{
		MaxInflightPublishes: 2,
		CheckInterval:        time.Hour, // inline enforcement only
	}, &pending)
	defer a.close()

	if err := a.admitPublish(); err != nil {
		t.Fatal(err)
	}
	if err := a.admitPublish(); err != nil {
		t.Fatal(err)
	}
	if err := a.admitPublish(); err == nil || !IsOverloaded(err) {
		t.Fatalf("third concurrent publish must be rejected as overloaded, got %v", err)
	}
	a.releasePublish()
	if err := a.admitPublish(); err != nil {
		t.Fatalf("a released slot must admit again: %v", err)
	}
	a.releasePublish()
	a.releasePublish()
}

func TestOverloadErrorTyping(t *testing.T) {
	err := OverloadedError("pending fan-out %d bytes over watermark", 42)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("OverloadedError must match ErrOverloaded via errors.Is")
	}
	if !IsOverloaded(err) {
		t.Fatal("IsOverloaded must accept the typed error")
	}
	// The round trip a client actually sees: the error text travels in
	// Message.Error and is reconstructed as a plain string error.
	if !IsOverloaded(errors.New(err.Error())) {
		t.Fatal("IsOverloaded must recognise the error after a wire round trip")
	}
	if IsOverloaded(errors.New("some other failure")) || IsOverloaded(nil) {
		t.Fatal("IsOverloaded must not match unrelated errors or nil")
	}

	exp := ExpiredError("publish: %v", context.DeadlineExceeded)
	if !IsExpired(exp) {
		t.Fatal("IsExpired must accept the typed error")
	}
	if !IsExpired(errors.New(exp.Error())) {
		t.Fatal("IsExpired must recognise the error after a wire round trip")
	}
	if IsExpired(err) || IsOverloaded(exp) || IsExpired(nil) {
		t.Fatal("expired and overloaded must stay distinct")
	}
}

func TestDeadlineGapCodecRoundtrip(t *testing.T) {
	for _, c := range []Codec{JSONCodec(), BinaryCodec()} {
		m := Message{Type: msgPublish, Seq: 9, ID: "p", Version: 3, DeadlineMS: 1234, Gap: 7}
		frame, err := c.AppendFrame(nil, &m)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		payload, err := c.ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		var got Message
		if err := c.DecodeFrame(payload, &got); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if got.DeadlineMS != 1234 || got.Gap != 7 {
			t.Fatalf("%s: deadline/gap = %d/%d, want 1234/7", c.Name(), got.DeadlineMS, got.Gap)
		}
	}

	// A legacy peer's frame has neither key: both fields must decode to
	// their zero values, meaning "no deadline, no gap".
	var legacy Message
	if err := JSONCodec().DecodeFrame([]byte(`{"type":"publish","seq":4,"id":"p"}`), &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.DeadlineMS != 0 || legacy.Gap != 0 {
		t.Fatalf("legacy frame decoded deadline/gap = %d/%d, want 0/0", legacy.DeadlineMS, legacy.Gap)
	}

	// And a frame from a future peer with keys we do not know must still
	// decode the ones we do.
	var future Message
	if err := JSONCodec().DecodeFrame([]byte(`{"type":"publish","seq":5,"id":"p","deadlineMs":250,"futureField":true}`), &future); err != nil {
		t.Fatal(err)
	}
	if future.DeadlineMS != 250 {
		t.Fatalf("future frame decoded deadline = %d, want 250", future.DeadlineMS)
	}
}

func TestDeadlineLegacyPeerInterop(t *testing.T) {
	s, _ := startServer(t)
	ctx := context.Background()

	// A deadline-aware peer on the legacy JSON framing: the server must
	// honour the budget and accept the publish.
	rc := dialRaw(t, s.Addr())
	body := []byte("x")
	rc.send(Message{Type: msgPublish, ID: "interop", Version: 1, Topics: []string{"t"}, Body: body, DeadlineMS: 5000})
	if resp := rc.read(); resp.Error != "" || !resp.OK {
		t.Fatalf("deadline-stamped publish rejected: %+v", resp)
	}

	// A legacy peer with no deadline field at all still publishes.
	rc.send(Message{Type: msgPublish, ID: "interop", Version: 2, Topics: []string{"t"}, Body: body})
	if resp := rc.read(); resp.Error != "" || !resp.OK {
		t.Fatalf("legacy publish rejected: %+v", resp)
	}

	// Real clients on both codecs stamp their context deadline onto the
	// wire and succeed against the same server.
	for name, opts := range map[string][]ClientOption{
		"binary":      nil,
		"json-pinned": {WithPreferredCodec(JSONCodec())},
	} {
		cl, err := Dial(ctx, s.Addr(), opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		_, err = cl.Publish(pctx, Content{ID: "interop-" + name, Version: 1, Topics: []string{"t"}, Body: []byte("y")})
		cancel()
		_ = cl.Close()
		if err != nil {
			t.Fatalf("%s deadline publish: %v", name, err)
		}
	}
}

// TestControlFramesBypassNotifyBacklog is the regression test for the
// heartbeat-priority bug: responses and heartbeats must never queue
// behind a deep notification backlog. It wedges a connWriter's flush
// on an unread pipe, piles notifications into the ring, appends one
// control frame, and asserts the control frame hits the wire ahead of
// the backlog.
func TestControlFramesBypassNotifyBacklog(t *testing.T) {
	sp, cp := net.Pipe()
	defer sp.Close()
	defer cp.Close()

	cw := newConnWriter(sp, JSONCodec(), 0, 5*time.Second, nil, nil, nil)
	defer cw.closeFlush(0)

	// First notification: the flusher picks it up and wedges in the
	// pipe write because nothing is reading yet.
	if err := cw.enqueueNotify(Notification{PageID: "p0", Version: 0}, "", time.Time{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// The backlog, then one control frame behind it.
	const backlog = 99
	for i := 1; i <= backlog; i++ {
		if err := cw.enqueueNotify(Notification{PageID: "p", Version: i}, "", time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.send(&Message{Type: msgResponse, Seq: 42, OK: true}); err != nil {
		t.Fatal(err)
	}

	// Drain the wire and record the frame order.
	_ = cp.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(cp)
	c := JSONCodec()
	controlAt := -1
	notifies := 0
	for i := 0; i < backlog+2; i++ {
		payload, err := c.ReadFrame(br, nil, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var m Message
		if err := c.DecodeFrame(payload, &m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		switch m.Type {
		case msgResponse:
			if m.Seq != 42 {
				t.Fatalf("unexpected response seq %d", m.Seq)
			}
			controlAt = i
		case msgNotify:
			notifies++
		default:
			t.Fatalf("unexpected frame type %q", m.Type)
		}
	}
	if notifies != backlog+1 {
		t.Fatalf("read %d notifications, want %d", notifies, backlog+1)
	}
	// At most the single wedged in-flight notification may precede the
	// control frame; the other 99 queued behind it must not.
	if controlAt < 0 || controlAt > 1 {
		t.Fatalf("control frame arrived at position %d, want 0 or 1 (ahead of the backlog)", controlAt)
	}
}

func TestSlowConsumerDropOldestGapMarker(t *testing.T) {
	reg, creg := telemetry.NewRegistry(), telemetry.NewRegistry()
	fn := faultnet.New(7)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := New()
	s, err := NewServer(b, "127.0.0.1:0",
		WithListener(fn.Listener(ln)),
		WithSlowConsumerPolicy(SlowConsumerDropOldest),
		WithMaxPendingPerConn(4096),
		WithServerTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	type delivery struct {
		sub     int64
		version int
	}
	var mu sync.Mutex
	delivered := make(map[delivery]bool)
	var gaps atomic.Int64
	cl, err := Dial(ctx, s.Addr(),
		WithNotify(func(n Notification) {
			mu.Lock()
			delivered[delivery{n.SubscriptionID, n.Version}] = true
			mu.Unlock()
		}),
		WithNotifyGap(func(missed int64) { gaps.Add(missed) }),
		WithClientTelemetry(creg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Several subscriptions on one connection: the client advertises
	// coalescing, so a publish's notifications share frames, while the
	// notify lane, the evictions and the gap counts stay per
	// notification.
	const subs = 4
	var subIDs []int64
	for i := 0; i < subs; i++ {
		id, err := cl.Subscribe(ctx, i+1, []string{"gap"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		subIDs = append(subIDs, id)
	}

	// Choke the server->client direction only, after the subscribe acks
	// are already home. Each notification is charged ~250 bytes for its
	// page ID, so a 4 KiB notify lane holds four publishes' worth: the
	// burst below must evict.
	fn.SetThrottle(0, 1024)
	pageID := "gap-" + strings.Repeat("x", 200)
	const publishes = 60
	acked := 0
	for v := 1; v <= publishes; v++ {
		matched, err := b.Publish(Content{ID: pageID, Version: v, Topics: []string{"gap"}, Body: []byte("b")})
		if err != nil {
			t.Fatalf("publish v%d: %v", v, err)
		}
		acked += matched
	}
	fn.SetThrottle(0, 0)
	if acked != subs*publishes {
		t.Fatalf("publishes matched %d notifications, want %d", acked, subs*publishes)
	}

	// Conservation, per notification: every acked notification was
	// either delivered or honestly accounted for by a wire-visible gap
	// marker.
	waitFor(t, "gap markers and deliveries to account for every notification", func() bool {
		mu.Lock()
		n := len(delivered)
		mu.Unlock()
		return gaps.Load()+int64(n) == int64(acked)
	})
	if gaps.Load() == 0 {
		t.Fatal("expected a non-zero gap with a 4 KiB lane and a 240-notification burst")
	}
	mu.Lock()
	for _, id := range subIDs {
		if !delivered[delivery{id, publishes}] {
			t.Errorf("drop-oldest must keep the newest version for subscription %d", id)
		}
	}
	mu.Unlock()
	if got := reg.Snapshot().Counters[`overload.slow_consumer{action="dropped"}`]; got != gaps.Load() {
		t.Fatalf("server dropped counter = %d, want the client's gap total %d", got, gaps.Load())
	}
	if got := creg.Snapshot().Counters["transport.client.notify_gaps"]; got != gaps.Load() {
		t.Fatalf("client gap counter = %d, want %d", got, gaps.Load())
	}
}

func TestSlowConsumerSeverQuarantine(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := New()
	s, err := NewServer(b, "127.0.0.1:0",
		WithSlowConsumerPolicy(SlowConsumerSever),
		WithMaxPendingPerConn(1024),
		WithQuarantine(800*time.Millisecond),
		WithServerTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rc := dialRaw(t, s.Addr())
	rc.subscribe([]string{"sever"})
	// The subscriber stops reading; one oversized notification cannot
	// fit the 1 KiB lane at all, so the sever policy trips immediately.
	pageID := "sever-" + strings.Repeat("x", 2048)
	if _, err := b.Publish(Content{ID: pageID, Version: 1, Topics: []string{"sever"}, Body: []byte("b")}); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "slow consumer severed", func() bool {
		return reg.Snapshot().Counters[`overload.slow_consumer{action="severed"}`] >= 1
	})
	// The severed peer's connection is dead.
	_ = rc.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := rc.c.ReadFrame(rc.br, nil, DefaultMaxFrame); err == nil {
		t.Fatal("severed connection must be closed by the server")
	}

	tryPing := func() bool {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			return false
		}
		defer conn.Close()
		frame, err := JSONCodec().AppendFrame(nil, &Message{Type: msgPing, Seq: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			return false
		}
		_ = conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		_, err = JSONCodec().ReadFrame(bufio.NewReader(conn), nil, DefaultMaxFrame)
		return err == nil
	}

	// Reconnects from the severed host are rejected for the quarantine
	// window, then served again.
	waitFor(t, "quarantine to reject reconnects", func() bool { return !tryPing() })
	if got := reg.Snapshot().Counters[`overload.slow_consumer{action="quarantined"}`]; got == 0 {
		t.Fatal("server must count quarantine rejections")
	}
	waitFor(t, "quarantine to lift", tryPing)
}

// stubBroker is a minimal JSON-wire broker that rejects publishes as
// overloaded on demand, for pinning the client's back-off behaviour
// without a real broker's timing in the way.
type stubBroker struct {
	ln          net.Listener
	rejects     atomic.Int64 // publishes to reject before accepting
	always      atomic.Bool  // reject every publish
	sawDeadline atomic.Int64 // last DeadlineMS seen on a publish
}

func startStubBroker(t *testing.T) *stubBroker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sb := &stubBroker{ln: ln}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go sb.serve(conn)
		}
	}()
	return sb
}

func (sb *stubBroker) serve(conn net.Conn) {
	defer conn.Close()
	c := JSONCodec()
	br := bufio.NewReader(conn)
	var out []byte
	for {
		payload, err := c.ReadFrame(br, nil, DefaultMaxFrame)
		if err != nil {
			return
		}
		var m Message
		if err := c.DecodeFrame(payload, &m); err != nil {
			return
		}
		resp := Message{Type: msgResponse, Seq: m.Seq, OK: true}
		if m.Type == msgPublish {
			if m.DeadlineMS > 0 {
				sb.sawDeadline.Store(m.DeadlineMS)
			}
			if sb.always.Load() || sb.rejects.Add(-1) >= 0 {
				resp.OK = false
				resp.Error = OverloadedError("pending fan-out over watermark").Error()
			} else {
				resp.Matched = 1
			}
		}
		out, err = c.AppendFrame(out[:0], &resp)
		if err != nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

func TestClientOverloadBackoff(t *testing.T) {
	sb := startStubBroker(t)
	sb.rejects.Store(2)

	reg := telemetry.NewRegistry()
	ctx := context.Background()
	cl, err := Dial(ctx, sb.ln.Addr().String(),
		WithPreferredCodec(JSONCodec()),
		WithReconnect(fastBackoff()),
		WithClientTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Two overload rejections, then success: the client must back off
	// twice and land the publish without burning its retry budget.
	pctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	matched, err := cl.Publish(pctx, Content{ID: "p", Version: 1, Topics: []string{"t"}, Body: []byte("x")})
	cancel()
	if err != nil {
		t.Fatalf("publish after overload back-off: %v", err)
	}
	if matched != 1 {
		t.Fatalf("matched = %d, want 1", matched)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["transport.client.overload_backoffs"]; got != 2 {
		t.Fatalf("overload_backoffs = %d, want 2", got)
	}
	if got := snap.Counters["transport.client.retries"]; got != 0 {
		t.Fatalf("retries = %d, want 0: overload back-off must not consume the retry budget", got)
	}
	if sb.sawDeadline.Load() <= 0 {
		t.Fatal("client must stamp its context deadline onto publish frames")
	}

	// A broker that stays overloaded: the rejection surfaces, typed,
	// after a bounded number of waits — still without spending retries.
	sb.always.Store(true)
	pctx, cancel = context.WithTimeout(ctx, 10*time.Second)
	_, err = cl.Publish(pctx, Content{ID: "p", Version: 2, Topics: []string{"t"}, Body: []byte("x")})
	cancel()
	if err == nil || !IsOverloaded(err) {
		t.Fatalf("publish against a persistently overloaded broker = %v, want overloaded", err)
	}
	snap = reg.Snapshot()
	if got := snap.Counters["transport.client.overload_backoffs"]; got != 2+maxOverloadWaits {
		t.Fatalf("overload_backoffs = %d, want %d", got, 2+maxOverloadWaits)
	}
	if got := snap.Counters["transport.client.retries"]; got != 0 {
		t.Fatalf("retries = %d, want 0", got)
	}
}

// TestChaosOverloadSlowConsumerIsolation is the tentpole guarantee: 1
// of 16 subscribers reading at a trickle must not move the publish
// path's latency and must not cost the 15 healthy subscribers a single
// notification. The slow subscriber comes in through a second,
// faultnet-throttled front door on the same broker so its write path
// is deterministically slow without touching anyone else's.
//
// Only the throttled door runs drop-oldest: that policy may drop for
// any connection the scheduler starves for a moment, so the healthy
// door keeps the default block policy, where strict delivery is the
// promise. Both doors share the same small per-connection lane.
func TestChaosOverloadSlowConsumerIsolation(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := New()
	lane := []ServerOption{WithMaxPendingPerConn(8 << 10), WithServerTelemetry(reg)}
	healthyFront, err := NewServer(b, "127.0.0.1:0", lane...)
	if err != nil {
		t.Fatal(err)
	}
	defer healthyFront.Close()

	fn := faultnet.New(99)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	slowFront, err := NewServer(b, "127.0.0.1:0", append([]ServerOption{
		WithListener(fn.Listener(ln)),
		WithSlowConsumerPolicy(SlowConsumerDropOldest),
	}, lane...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer slowFront.Close()

	ctx := context.Background()
	const healthy = 15
	const publishes = 300
	pageID := "stream-" + strings.Repeat("p", 1500)

	var mu sync.Mutex
	got := make([]map[int]bool, healthy)
	for i := 0; i < healthy; i++ {
		i := i
		got[i] = make(map[int]bool)
		cl, err := Dial(ctx, healthyFront.Addr(),
			WithNotify(func(n Notification) {
				mu.Lock()
				got[i][n.Version] = true
				mu.Unlock()
			}),
			WithReconnect(fastBackoff()))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Subscribe(ctx, 1, []string{"overload"}, nil); err != nil {
			t.Fatal(err)
		}
	}

	// The 16th subscriber: subscribed at full speed, then its front
	// door is throttled to ~1% of the fan-out rate and it just trickles.
	rc := dialRaw(t, slowFront.Addr())
	rc.subscribe([]string{"overload"})
	fn.SetThrottle(0, 512)
	go func() { _, _ = io.Copy(io.Discard, rc.conn) }()

	pub, err := Dial(ctx, healthyFront.Addr(), WithReconnect(fastBackoff()))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	lat := make([]time.Duration, 0, publishes)
	for v := 1; v <= publishes; v++ {
		pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		start := time.Now()
		_, err := pub.Publish(pctx, Content{ID: pageID, Version: v, Topics: []string{"overload"}, Body: []byte("body")})
		cancel()
		if err != nil {
			t.Fatalf("publish v%d: %v", v, err)
		}
		lat = append(lat, time.Since(start))
	}

	// The publish path must not have waited on the stalled reader.
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p99 := lat[len(lat)*99/100]; p99 > 500*time.Millisecond {
		t.Fatalf("p99 publish latency %v with one slow consumer: fan-out is blocking on it", p99)
	}

	// Acked ⊆ delivered for every healthy subscriber: all 300 acked
	// versions reach all 15 of them.
	waitFor(t, "healthy subscribers to receive every acked version", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < healthy; i++ {
			if len(got[i]) != publishes {
				return false
			}
		}
		return true
	})

	// Isolation happened by dropping for the slow consumer, not by
	// severing it (drop-oldest keeps degraded service) and not by
	// blocking the fan-out.
	snap := reg.Snapshot()
	if snap.Counters[`overload.slow_consumer{action="dropped"}`] == 0 {
		t.Fatal("expected drop-oldest evictions on the stalled subscriber's lane")
	}
	if snap.Counters[`overload.slow_consumer{action="severed"}`] != 0 {
		t.Fatal("drop-oldest must not sever the slow consumer")
	}
}

// TestChaosOverloadAdmission drives the broker into its overloaded
// state and asserts the shed priority: publishes are rejected with the
// typed overload error while the control plane keeps answering.
func TestChaosOverloadAdmission(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := New()
	s, err := NewServer(b, "127.0.0.1:0",
		WithAdmissionControl(AdmissionConfig{MaxHeapBytes: 1, CheckInterval: 2 * time.Millisecond}),
		WithServerTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	waitFor(t, "admission to trip on the 1-byte heap limit", func() bool {
		state, _ := s.OverloadState()
		return state == "overloaded"
	})
	if _, reason := s.OverloadState(); !strings.Contains(reason, "heap") {
		t.Fatalf("overload reason %q, want a heap explanation", reason)
	}

	ctx := context.Background()
	cl, err := Dial(ctx, s.Addr(), WithReconnect(fastBackoff()))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := cl.Publish(pctx, Content{ID: "p", Version: 1, Topics: []string{"t"}, Body: []byte("x")}); err == nil || !IsOverloaded(err) {
		t.Fatalf("publish on an overloaded broker = %v, want overloaded", err)
	}
	// Control frames are never shed.
	if err := cl.Ping(pctx); err != nil {
		t.Fatalf("ping on an overloaded broker: %v", err)
	}
	if got := reg.Snapshot().Counters[`overload.shed{class="publish"}`]; got == 0 {
		t.Fatal("server must count shed publishes")
	}
}
