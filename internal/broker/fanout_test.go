package broker

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pubsubcd/internal/match"
)

// Run-level notify fan-out: a publish reaches each connection as one
// run, enqueued under one lock and flushed as one frame on a coalescing
// connection. These tests pin the frame counts end to end, the
// slow-consumer policies applied inside a run, the allocation-free
// steady state, and the client's mapping of the IDs a frame carries.

// coalescingHello is the hello of a raw peer that decodes coalesced
// notify frames.
var coalescingHello = &Message{Type: msgHello, Codecs: []string{codecBinary}, Caps: []string{capCoalesce}}

// enqueueNotify queues one notification: the run-of-one case of
// enqueueRun, which the writer tests drive one notification at a time.
func (cw *connWriter) enqueueNotify(n Notification, trace string, pub time.Time) error {
	n.ingress = pub
	_, err := cw.enqueueRun(n, []int64{n.SubscriptionID}, trace)
	return err
}

// readFrameIDs reads notify frames off r until they carry n
// notifications and returns each frame's subscription IDs.
func readFrameIDs(t *testing.T, r *rawConn, n int) [][]int64 {
	t.Helper()
	var frames [][]int64
	for got := 0; got < n; {
		f := wireFrame{m: r.read()}
		if f.m.Type != msgNotify || f.m.Notification == nil {
			t.Fatalf("frame %d: not a notification: %+v", len(frames), f.m)
		}
		ids := f.subIDs()
		got += len(ids)
		frames = append(frames, ids)
	}
	return frames
}

// A publish matching 1 000 subscriptions on one coalescing connection
// arrives as exactly one notify frame, whatever the flusher's timing.
func TestPublishIsOneFramePerConnection(t *testing.T) {
	s, b := startServer(t)
	const subs = 1000
	r, ids := rawSubscriber(t, s.Addr(), coalescingHello, "wide", subs)
	for v := 1; v <= 3; v++ {
		if _, err := b.Publish(Content{ID: "wide-page", Version: v, Topics: []string{"wide"}}); err != nil {
			t.Fatal(err)
		}
		frames := readFrameIDs(t, r, subs)
		if len(frames) != 1 {
			t.Fatalf("publish %d: %d notifications took %d frames, want 1", v, subs, len(frames))
		}
		if !reflect.DeepEqual(frames[0], ids) {
			t.Fatalf("publish %d: frame carries %v..., want the %d subscriptions in ascending order", v, frames[0][:min(5, len(frames[0]))], subs)
		}
	}
}

// Subscriptions of two connections interleaved by ID still make one
// frame per connection per publish: the fan-out groups by connection
// in one pass.
func TestInterleavedConnectionsOneFramePerConnection(t *testing.T) {
	s, b := startServer(t)
	const perConn = 300
	conns := make([]*rawConn, 2)
	for c := range conns {
		conns[c], _ = rawSubscriber(t, s.Addr(), coalescingHello, "mix", 0)
	}
	ids := make([][]int64, len(conns))
	for i := 0; i < perConn; i++ {
		for c, r := range conns {
			r.send(Message{Type: msgSubscribe, Proxy: i + 1, Topics: []string{"mix"}})
			resp := r.read()
			if !resp.OK {
				t.Fatalf("subscribe rejected: %+v", resp)
			}
			ids[c] = append(ids[c], resp.SubID)
		}
	}
	if ids[0][1] != ids[1][0]+1 {
		t.Fatalf("subscriptions not interleaved by ID: %v / %v", ids[0][:2], ids[1][:2])
	}
	for v := 1; v <= 3; v++ {
		if _, err := b.Publish(Content{ID: "mix-page", Version: v, Topics: []string{"mix"}}); err != nil {
			t.Fatal(err)
		}
		for c, r := range conns {
			frames := readFrameIDs(t, r, perConn)
			if len(frames) != 1 || !reflect.DeepEqual(frames[0], ids[c]) {
				t.Fatalf("publish %d, connection %d: %d frames, want one frame carrying its %d subscriptions in order", v, c, len(frames), perConn)
			}
		}
	}
}

// slowReader reads frames in codec c off conn until EOF, sleeping delay
// after each, and reports the notifications and gap counts it saw.
type slowReader struct {
	ids  []int64
	gap  int64
	done chan struct{}
}

func readSlowly(conn net.Conn, c Codec, delay time.Duration) *slowReader {
	sr := &slowReader{done: make(chan struct{})}
	go func() {
		defer close(sr.done)
		br := bufio.NewReader(conn)
		var buf []byte
		var m Message
		for {
			payload, err := c.ReadFrame(br, buf, DefaultMaxFrame)
			if err != nil {
				return
			}
			buf = payload
			if err := c.DecodeFrame(payload, &m); err != nil {
				return
			}
			sr.gap += m.Gap
			if m.Notification != nil {
				sr.ids = append(sr.ids, m.Notification.SubscriptionID)
				sr.ids = append(sr.ids, m.MoreSubIDs...)
			}
			if delay > 0 {
				time.Sleep(delay)
			}
		}
	}()
	return sr
}

// laneInvariants checks a writer's notify-lane accounting against its
// run entries, under cw.mu, and describes the first violation: count is
// the entries' IDs, ringBytes is Σ est × IDs and stays within the bound
// unless the lane holds one over-sized notification, and no entry is
// empty.
func laneInvariants(cw *connWriter) string {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	ids, bytes := 0, int64(0)
	for i := 0; i < cw.runCount; i++ {
		r := &cw.runs[(cw.runHead+i)%len(cw.runs)]
		if r.ids <= 0 {
			return fmt.Sprintf("entry %d of %d holds %d IDs", i, cw.runCount, r.ids)
		}
		ids += r.ids
		bytes += r.est * int64(r.ids)
	}
	switch {
	case ids != cw.count:
		return fmt.Sprintf("count %d, entries hold %d IDs", cw.count, ids)
	case bytes != cw.ringBytes:
		return fmt.Sprintf("ringBytes %d, entries charge %d", cw.ringBytes, bytes)
	case cw.ringBytes > cw.maxPending && cw.count != 1:
		return fmt.Sprintf("ringBytes %d over the bound %d with %d notifications queued", cw.ringBytes, cw.maxPending, cw.count)
	}
	return ""
}

// TestEnqueueRunSlowConsumerProperty drives enqueueRun with random run
// lengths (1 to 4× the lane's capacity), lane sizes and reader speeds
// under each slow-consumer policy. After every run the lane's
// accounting matches its entries (laneInvariants), and once the writer
// has closed the shared pending-bytes gauge is back to 0. Each policy
// keeps its contract:
//
//   - drop-oldest: delivered + Σgap = enqueued, and what is delivered
//     keeps its order;
//   - block: with a reader that drains within the grace, everything is
//     delivered in order and nothing is severed — including runs larger
//     than the whole lane;
//   - sever: a lane that overflows severs the connection, once, and
//     counts it; a lane that never overflows delivers everything.
func TestEnqueueRunSlowConsumerProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const page = "property-page"
	est := int64(notifyFrameOverhead + len(page))
	policies := []SlowConsumerPolicy{SlowConsumerDropOldest, SlowConsumerBlock, SlowConsumerSever}
	for _, policy := range policies {
		for trial := 0; trial < 25; trial++ {
			lane := 2 + rng.Intn(63) // notifications the lane holds
			delay := []time.Duration{0, 20 * time.Microsecond, 200 * time.Microsecond}[rng.Intn(3)]
			stalled := policy == SlowConsumerSever && trial%2 == 0
			coalesce := rng.Intn(2) == 0
			name := fmt.Sprintf("%v/trial%d/lane%d/delay%v/stalled%v/coalesce%v", policy, trial, lane, delay, stalled, coalesce)

			sp, cp := net.Pipe()
			cw := newConnWriter(sp, BinaryCodec(), 0, 30*time.Second, nil, nil, nil)
			var mu sync.Mutex
			actions := map[string]int64{}
			var severs atomic.Int64
			var pending atomic.Int64
			cw.configureNotifyLane(policy, int64(lane)*est, &pending,
				func(a string, n int64) { mu.Lock(); actions[a] += n; mu.Unlock() },
				func() { severs.Add(1) })
			cw.setCodec(BinaryCodec(), 0, coalesce)
			var sr *slowReader
			if !stalled {
				sr = readSlowly(cp, BinaryCodec(), delay)
			}

			enqueued, next := 0, int64(1)
			var runErr error
			for r, runs := 0, 2+rng.Intn(8); r < runs && runErr == nil; r++ {
				length := 1 + rng.Intn(4*lane)
				if stalled && length <= lane {
					length += lane // a stalled reader must see its lane overflow
				}
				ids := make([]int64, length)
				for i := range ids {
					ids[i] = next
					next++
				}
				var sent int
				sent, runErr = cw.enqueueRun(Notification{PageID: page, Version: r + 1, ingress: time.Now()}, ids, "")
				enqueued += sent
				if msg := laneInvariants(cw); msg != "" {
					t.Fatalf("%s: after run %d: %s", name, r, msg)
				}
				if runErr == nil && sent != len(ids) {
					t.Fatalf("%s: run %d queued %d of %d with no error", name, r, sent, len(ids))
				}
			}
			cw.closeFlush(10 * time.Second)
			_ = sp.Close()
			if stalled {
				_ = cp.Close()
			} else {
				<-sr.done
			}
			if got := pending.Load(); got != 0 {
				t.Fatalf("%s: pending-bytes gauge reads %d after the writer closed, want 0", name, got)
			}
			mu.Lock()
			severed, dropped := actions[slowActionSevered], actions[slowActionDropped]
			mu.Unlock()

			switch policy {
			case SlowConsumerDropOldest:
				if runErr != nil || severed != 0 {
					t.Fatalf("%s: err %v, severed %d: drop-oldest must never sever", name, runErr, severed)
				}
				if got := int64(len(sr.ids)) + sr.gap; got != int64(enqueued) || sr.gap != dropped {
					t.Fatalf("%s: delivered %d + gap %d = %d, enqueued %d (dropped counter %d)", name, len(sr.ids), sr.gap, got, enqueued, dropped)
				}
				for i := 1; i < len(sr.ids); i++ {
					if sr.ids[i] <= sr.ids[i-1] {
						t.Fatalf("%s: delivery out of order at %d: %d after %d", name, i, sr.ids[i], sr.ids[i-1])
					}
				}
			case SlowConsumerBlock:
				if runErr != nil || severed != 0 {
					t.Fatalf("%s: err %v, severed %d, with a reader draining within the grace", name, runErr, severed)
				}
				if sr.gap != 0 || len(sr.ids) != enqueued {
					t.Fatalf("%s: delivered %d (gap %d), enqueued %d", name, len(sr.ids), sr.gap, enqueued)
				}
				for i, id := range sr.ids {
					if id != int64(i+1) {
						t.Fatalf("%s: notification %d is subscription %d", name, i, id)
					}
				}
			case SlowConsumerSever:
				if stalled && runErr == nil {
					t.Fatalf("%s: a stalled reader's lane overflowed without a sever", name)
				}
				if runErr != nil {
					if !errors.Is(runErr, errSlowConsumer) || severed != 1 || severs.Load() != 1 {
						t.Fatalf("%s: err %v, severed counter %d, sever hook %d: want one counted sever", name, runErr, severed, severs.Load())
					}
					if _, err := cw.enqueueRun(Notification{PageID: page}, []int64{next}, ""); err == nil {
						t.Fatalf("%s: a severed writer accepted a run", name)
					}
				} else if severed != 0 || len(sr.ids) != enqueued {
					t.Fatalf("%s: no sever, but delivered %d of %d (severed counter %d)", name, len(sr.ids), enqueued, severed)
				}
			}
		}
	}
}

// TestNotifyLaneFramesAcrossWrapsAndSplits drains a lane whose runs
// wrap the ID ring's end, whose ID ring grows while wrapped, and whose
// publishes are split over several entries, as the block policy splits
// a run that waits for room. With coalescing, each publish leaves as
// one frame, byte-identical to the frame encoded straight from its IDs,
// so the IDs the reader receives, concatenated, are the enqueued IDs in
// order. Without, each notification is its own frame, in the same
// order.
func TestNotifyLaneFramesAcrossWrapsAndSplits(t *testing.T) {
	steps := []struct {
		parts []int // IDs queued per enqueueRun call of the publish
		drain bool  // drain the lane after queueing
		check func(cw *connWriter) bool
	}{
		{[]int{10}, true, nil}, // the ring starts at minRing slots; its head moves to 10
		{[]int{12}, false, func(cw *connWriter) bool { return cw.idHead+cw.count > len(cw.ids) }},
		{[]int{5, 7}, true, func(cw *connWriter) bool { return cw.runCount == 3 && len(cw.ids) == 2*minRing }},
		{[]int{5, 6}, false, func(cw *connWriter) bool { return cw.runCount == 2 && cw.idHead+cw.count > len(cw.ids) }},
		{[]int{3}, true, nil},
	}
	for _, coalesce := range []bool{true, false} {
		cw := flusherlessWriters(1, coalesce, SlowConsumerBlock, 0)[0]
		var d laneDrainer
		var want []byte
		next := int64(1)
		for i, st := range steps {
			n := Notification{PageID: "p", Version: i + 1, Size: 7}
			var ids []int64
			for _, k := range st.parts {
				part := make([]int64, k)
				for j := range part {
					part[j] = next
					next++
				}
				if sent, err := cw.enqueueRun(n, part, ""); sent != k || err != nil {
					t.Fatalf("coalesce=%v publish %d: queued %d of %d, err %v", coalesce, i, sent, k, err)
				}
				ids = append(ids, part...)
			}
			if st.check != nil && !st.check(cw) {
				t.Fatalf("coalesce=%v publish %d: lane of %d entries, %d IDs from %d of %d slots is not the shape under test",
					coalesce, i, cw.runCount, cw.count, cw.idHead, len(cw.ids))
			}
			for len(ids) > 0 {
				k := len(ids)
				if !coalesce {
					k = 1
				}
				n.SubscriptionID = ids[0]
				var err error
				if want, err = BinaryCodec().AppendFrame(want, &Message{Type: msgNotify, Notification: &n, MoreSubIDs: ids[1:k]}); err != nil {
					t.Fatal(err)
				}
				ids = ids[k:]
			}
			if !st.drain {
				continue
			}
			if got := d.drain(cw); !bytes.Equal(got, want) {
				t.Fatalf("coalesce=%v publish %d: drained frames\n%x\nwant\n%x", coalesce, i, got, want)
			}
			want = want[:0]
		}
	}
}

// flusherlessWriters makes connection writers with no flusher, for
// tests that drain their lanes themselves. lane is each lane's bound
// in notifications of page "p" (0: unbounded).
func flusherlessWriters(n int, coalesce bool, policy SlowConsumerPolicy, lane int64) []*connWriter {
	writers := make([]*connWriter, n)
	for i := range writers {
		cw := &connWriter{maxPending: 1 << 30, policy: policy, codec: BinaryCodec(), coalesce: coalesce}
		if lane > 0 {
			cw.maxPending = lane * (notifyFrameOverhead + 1)
		}
		cw.cond = sync.NewCond(&cw.mu)
		writers[i] = cw
	}
	return writers
}

// laneDrainer drains a flusherless writer's notify lane through the
// flusher's encode path into a reused buffer and envelope.
type laneDrainer struct {
	buf []byte
	em  Message
}

func (d *laneDrainer) drain(cw *connWriter) []byte {
	if d.em.Notification == nil {
		d.em.Type = msgNotify
		d.em.Notification = &d.em.notifScratch
	}
	cw.mu.Lock()
	defer cw.mu.Unlock()
	d.buf = d.buf[:0]
	for cw.count > 0 {
		d.buf = cw.appendNotifyLocked(d.buf, &d.em)
	}
	return d.buf
}

// TestFanoutRunZeroAlloc: in the steady state, grouping 1 024 matches
// into runs, queueing them on two connections' notify lanes and
// draining the lanes through the flusher's encode path allocates
// nothing, with coalescing on and off. Neither does a publish into a
// full drop-oldest lane, which evicts in one step and leaves the lane
// one entry per connection, not one per notification.
func TestFanoutRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	for _, tc := range []struct {
		name     string
		coalesce bool
		lane     int64 // notifications; 0 leaves the lane unbounded and drains it
	}{
		{"coalesced", true, 0},
		{"frame per notification", false, 0},
		{"full drop-oldest lane", true, 128},
	} {
		s := &Server{}
		writers := flusherlessWriters(2, tc.coalesce, SlowConsumerDropOldest, tc.lane)
		notifiers := map[*connWriter]*connNotifier{}
		for _, cw := range writers {
			notifiers[cw] = &connNotifier{s: s, cw: cw}
		}
		targets := make([]Target, 1024)
		for i := range targets {
			cw := writers[0]
			if i%8 == 7 {
				cw = writers[1] // a second connection interleaved by ID
			}
			targets[i] = ResolveTarget(Relabel(int64(5000+i), notifiers[cw]), int64(i+1))
		}
		var f Fanout
		var d laneDrainer
		deliver := func() {
			for _, tg := range targets {
				f.Add(tg)
			}
			if got := f.Deliver(context.Background(), Notification{PageID: "p", Version: 1}); got != len(targets) {
				t.Fatalf("%s: delivered %d, want %d", tc.name, got, len(targets))
			}
		}
		publish := func() {
			deliver()
			for _, cw := range writers {
				if tc.lane == 0 {
					d.drain(cw)
				} else if cw.count != int(tc.lane) || cw.runCount != 1 {
					t.Fatalf("%s: full lane holds %d notifications in %d entries, want %d in 1", tc.name, cw.count, cw.runCount, tc.lane)
				}
			}
		}
		publish() // grow the buffers
		publish() // fill the lanes
		if allocs := testing.AllocsPerRun(50, publish); allocs != 0 {
			t.Fatalf("%s: fan-out of %d matches: %.1f allocations per publish, want 0", tc.name, len(targets), allocs)
		}
		if tc.lane != 0 {
			continue
		}
		deliver()
		for i, want := range []struct{ ids, head int64 }{{896, 5000}, {128, 5007}} {
			cw := writers[i]
			if r := &cw.runs[cw.runHead]; cw.runCount != 1 || cw.count != int(want.ids) || r.ids != int(want.ids) || cw.ids[cw.idHead] != want.head {
				t.Fatalf("%s: connection %d queued %d notifications in %d entries (head entry %d IDs from %d); want one entry of %d from the relabeled %d",
					tc.name, i, cw.count, cw.runCount, r.ids, cw.ids[cw.idHead], want.ids, want.head)
			}
		}
	}
}

// TestClientDeliverZeroAlloc: Client.deliver mapping a 1 024-ID notify
// frame's server IDs to client IDs and handing them to the
// WithNotifyContext callback allocates nothing in the steady state,
// and drops the IDs it has no mapping for.
func TestClientDeliverZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	var got []int64
	c := &Client{cfg: clientConfig{notifyCtx: func(_ context.Context, _ Notification, ids []int64) {
		got = append(got[:0], ids...)
	}}}
	sids := make([]int64, 1024)
	for i := range sids {
		sids[i] = int64(3000 + 2*i)
		if i%16 != 15 { // every sixteenth server ID stays unmapped
			c.byServer.Set(sids[i], int64(i+1))
		}
	}
	m := &Message{Type: msgNotify, Notification: &Notification{PageID: "p", Version: 1, SubscriptionID: sids[0]}, MoreSubIDs: sids[1:]}
	cc := &clientConn{}
	deliver := func() { c.deliver(cc, m) }
	deliver() // grow the buffers
	if allocs := testing.AllocsPerRun(50, deliver); allocs != 0 {
		t.Fatalf("delivering a %d-ID frame: %.1f allocations, want 0", len(sids), allocs)
	}
	if len(got) != 960 || got[0] != 1 || got[15] != 17 {
		t.Fatalf("delivered %d IDs starting %v, want 960 starting 1 and skipping every sixteenth", len(got), got[:16])
	}
}

// TestClientDropsUnmappedServerIDs: a notify frame may name a server
// subscription ID the client has no mapping for. Passing it on would
// deliver it under whichever client subscription shares the number, so
// the client drops it. A subscribe response binds its ID before the
// next frame is read, so a notify that follows the response at once is
// delivered under the new subscription.
func TestClientDropsUnmappedServerIDs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	notify := func(sid int64, page string) Message {
		return Message{Type: msgNotify, Notification: &Notification{PageID: page, Version: 1, SubscriptionID: sid}}
	}
	serverIDs := []int64{50, 60}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// A line-JSON peer that answers subscribes with serverIDs; the
		// second response is followed in the same write by a notify for
		// it, then by a notify for server ID 2 — unmapped, and equal to
		// the second subscription's client ID — and one for each real ID.
		sc := bufio.NewScanner(conn)
		subs := 0
		for sc.Scan() {
			var m Message
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				return
			}
			out := []Message{{Type: msgResponse, Seq: m.Seq, OK: true}}
			if m.Type == msgSubscribe {
				out[0].SubID = serverIDs[subs]
				subs++
				if subs == 2 {
					out = append(out, notify(60, "early"), notify(2, "stray"), notify(50, "one"), notify(60, "two"))
				}
			}
			var buf []byte
			for i := range out {
				if buf, err = JSONCodec().AppendFrame(buf, &out[i]); err != nil {
					return
				}
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()

	type got struct {
		id   int64
		page string
	}
	delivered := make(chan got, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, ln.Addr().String(), WithPreferredCodec(JSONCodec()),
		WithNotify(func(n Notification) { delivered <- got{n.SubscriptionID, n.PageID} }))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for want := int64(1); want <= 2; want++ {
		id, err := c.Subscribe(ctx, 1, []string{"t"}, nil)
		if err != nil || id != want {
			t.Fatalf("subscribe: id %d, err %v; want id %d", id, err, want)
		}
	}
	want := []got{{2, "early"}, {1, "one"}, {2, "two"}}
	for i, w := range want {
		select {
		case g := <-delivered:
			if g != w {
				t.Fatalf("delivery %d = %+v, want %+v", i, g, w)
			}
		case <-ctx.Done():
			t.Fatalf("delivery %d (%+v) never arrived", i, w)
		}
	}
}

// The per-frame WithNotifyContext callback gets the whole frame: every
// client ID it carries, in order, in one call.
func TestNotifyContextGetsWholeFrame(t *testing.T) {
	s, b := startServer(t)
	var mu sync.Mutex
	var calls [][]int64
	c, err := Dial(context.Background(), s.Addr(),
		WithNotifyContext(func(_ context.Context, n Notification, ids []int64) {
			if n.SubscriptionID != ids[0] {
				t.Errorf("notification carries %d, ids start at %d", n.SubscriptionID, ids[0])
			}
			mu.Lock()
			calls = append(calls, append([]int64(nil), ids...))
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var want []int64
	for i := 0; i < 50; i++ {
		id, err := c.Subscribe(context.Background(), i, []string{"frame"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	if _, err := b.Publish(Content{ID: "f", Version: 1, Topics: []string{"frame"}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the frame", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(calls) > 0
	})
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 1 || !reflect.DeepEqual(calls[0], want) {
		t.Fatalf("callback calls %v, want one call with %v", calls, want)
	}
}

// Plain notifiers and relabeled ones still get one call per
// notification, under their own IDs, next to connection runs.
func TestFanoutPlainAndRelabeledNotifiers(t *testing.T) {
	b := New()
	var mu sync.Mutex
	got := map[int64]int{}
	rec := NotifierFunc(func(n Notification) {
		mu.Lock()
		got[n.SubscriptionID]++
		mu.Unlock()
	})
	plain, err := b.Subscribe(match.Subscription{Topics: []string{"x"}}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(match.Subscription{Topics: []string{"x"}}, Relabel(900, rec)); err != nil {
		t.Fatal(err)
	}
	if n, err := b.Publish(Content{ID: "x", Version: 1, Topics: []string{"x"}}); err != nil || n != 2 {
		t.Fatalf("publish matched %d, err %v", n, err)
	}
	if want := map[int64]int{plain: 1, 900: 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
}
