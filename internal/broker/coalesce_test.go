package broker

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pubsubcd/internal/telemetry"
)

// Notify coalescing: a connection whose peer advertised capCoalesce
// gets the notifications one publish matched on it as one frame
// (Notification.SubscriptionID plus MoreSubIDs). These tests pin the
// wire format, the writer's run detection and splitting, the
// negotiation that keeps every other peer on one frame per
// notification, and the gap accounting for notifications that cannot
// be sent.

// goldenNotify is a single-subscription notify frame in the format that
// predates coalescing, per codec. A run of one must still encode to
// exactly these bytes.
var goldenNotify = map[string]string{
	codecJSON:   "{\"type\":\"notify\",\"notification\":{\"pageId\":\"page-1\",\"version\":3,\"size\":4096,\"subscriptionId\":300},\"publishedAt\":1500,\"trace\":\"0123456789abcdef0123456789abcdef-0123456789abcdef\"}\n",
	codecBinary: "\x00\x00\x00G\x06\x1d10123456789abcdef0123456789abcdef-0123456789abcdef2\xb8\x17\x1f\x06page-1 \x06\"\x80@$\xd8\x04",
}

func goldenNotifyMessage() Message {
	return Message{
		Type: msgNotify, PublishedAt: 1500,
		Trace:        "0123456789abcdef0123456789abcdef-0123456789abcdef",
		Notification: &Notification{PageID: "page-1", Version: 3, Size: 4096, SubscriptionID: 300},
	}
}

func TestCoalescedRunOfOneIsLegacyFrame(t *testing.T) {
	for _, c := range []Codec{JSONCodec(), BinaryCodec()} {
		for _, more := range [][]int64{nil, {}} {
			m := goldenNotifyMessage()
			m.MoreSubIDs = more
			frame, err := c.AppendFrame(nil, &m)
			if err != nil {
				t.Fatalf("%s: encode: %v", c.Name(), err)
			}
			if got, want := string(frame), goldenNotify[c.Name()]; got != want {
				t.Fatalf("%s run of one (MoreSubIDs %#v):\n got %q\nwant %q", c.Name(), more, got, want)
			}
		}

		// Through the connection writer: a coalescing writer with one
		// queued notification writes the same bytes as a writer that
		// never coalesces.
		n := Notification{PageID: "page-1", Version: 3, Size: 4096, SubscriptionID: 300}
		var out [2][]byte
		for i, coalesce := range []bool{false, true} {
			cw, cp := wedgeWriter(t, c, 0, coalesce)
			if err := cw.enqueueNotify(n, "", time.Time{}); err != nil {
				t.Fatal(err)
			}
			out[i] = readNotifyFrames(t, cp, c, 2)[1].raw
		}
		if !bytes.Equal(out[0], out[1]) {
			t.Fatalf("%s: coalescing writer's run of one = %q, plain writer's = %q", c.Name(), out[1], out[0])
		}
	}
}

// TestCoalescedNotifyCodecsAgree is the differential check: a coalesced
// notify decodes to the same Message through JSON and binary, that
// Message is the one encoded, and re-encoding it is stable.
func TestCoalescedNotifyCodecsAgree(t *testing.T) {
	for _, run := range []int{1, 2, 1000} {
		in := goldenNotifyMessage()
		for i := 1; i < run; i++ {
			// Mixed magnitudes and signs exercise every varint length.
			in.MoreSubIDs = append(in.MoreSubIDs, int64(i*i*i)*int64(1-2*(i%2)))
		}
		var decoded []Message
		for _, c := range []Codec{JSONCodec(), BinaryCodec()} {
			frame, err := c.AppendFrame(nil, &in)
			if err != nil {
				t.Fatalf("run %d %s: encode: %v", run, c.Name(), err)
			}
			payload, err := c.ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil, DefaultMaxFrame)
			if err != nil {
				t.Fatalf("run %d %s: read: %v", run, c.Name(), err)
			}
			var out Message
			if err := c.DecodeFrame(payload, &out); err != nil {
				t.Fatalf("run %d %s: decode: %v", run, c.Name(), err)
			}
			if !reflect.DeepEqual(out, in) {
				t.Fatalf("run %d %s: decoded %+v, want %+v", run, c.Name(), out, in)
			}
			again, err := c.AppendFrame(nil, &out)
			if err != nil || !bytes.Equal(again, frame) {
				t.Fatalf("run %d %s: re-encode differs (err %v)", run, c.Name(), err)
			}
			decoded = append(decoded, out)
		}
		if !reflect.DeepEqual(decoded[0], decoded[1]) {
			t.Fatalf("run %d: JSON decoded %+v, binary decoded %+v", run, decoded[0], decoded[1])
		}
	}
}

// A binary decode into a reused Message reuses MoreSubIDs' backing
// array and leaves no stale IDs behind on a frame without the field.
func TestBinaryDecodeReusesMoreSubIDs(t *testing.T) {
	c := BinaryCodec()
	multi := goldenNotifyMessage()
	multi.MoreSubIDs = []int64{301, 302, 303}
	frame, err := c.AppendFrame(nil, &multi)
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := c.DecodeFrame(frame[4:], &m); err != nil {
		t.Fatal(err)
	}
	first := &m.MoreSubIDs[0]
	if err := c.DecodeFrame(frame[4:], &m); err != nil {
		t.Fatal(err)
	}
	if &m.MoreSubIDs[0] != first || !reflect.DeepEqual(m.MoreSubIDs, multi.MoreSubIDs) {
		t.Fatalf("second decode: MoreSubIDs %v, reused %v", m.MoreSubIDs, &m.MoreSubIDs[0] == first)
	}
	single := goldenNotifyMessage()
	frame, err = c.AppendFrame(nil, &single)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DecodeFrame(frame[4:], &m); err != nil {
		t.Fatal(err)
	}
	if m.MoreSubIDs != nil {
		t.Fatalf("single-subscription frame decoded MoreSubIDs %v", m.MoreSubIDs)
	}
}

// wireFrame is one decoded frame read off a connection, with its raw
// bytes.
type wireFrame struct {
	m   Message
	raw []byte
}

// subIDs lists the subscriptions a notify frame carries, in order.
func (f wireFrame) subIDs() []int64 {
	if f.m.Notification == nil {
		return nil
	}
	return append([]int64{f.m.Notification.SubscriptionID}, f.m.MoreSubIDs...)
}

// readNotifyFrames reads frames in codec c off conn until they carry n
// notifications.
func readNotifyFrames(t *testing.T, conn net.Conn, c Codec, n int) []wireFrame {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReaderSize(conn, 1<<20)
	var frames []wireFrame
	for got := 0; got < n; {
		payload, err := c.ReadFrame(br, nil, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", len(frames), err)
		}
		var f wireFrame
		if c.Name() == codecBinary {
			f.raw = append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
		} else {
			f.raw = append(append([]byte{}, payload...), '\n')
		}
		if err := c.DecodeFrame(payload, &f.m); err != nil {
			t.Fatalf("frame %d: %v", len(frames), err)
		}
		if f.m.Type != msgNotify || f.m.Notification == nil {
			t.Fatalf("frame %d: not a notification: %+v", len(frames), f.m)
		}
		got += len(f.subIDs())
		frames = append(frames, f)
	}
	return frames
}

// wedgeWriter returns a connection writer (on one end of a pipe, with a
// notify lane too large to ever apply its slow-consumer policy) whose
// flusher is blocked writing a first "wedge" notification, so whatever
// is enqueued next waits in the ring until the test reads the pipe.
func wedgeWriter(t *testing.T, c Codec, limit int, coalesce bool) (*connWriter, net.Conn) {
	t.Helper()
	sp, cp := net.Pipe()
	cw := newConnWriter(sp, c, limit, 30*time.Second, nil, nil, nil)
	cw.configureNotifyLane(SlowConsumerBlock, 1<<30, 0, nil, nil, nil)
	cw.setCodec(c, limit, coalesce)
	t.Cleanup(func() {
		_ = sp.Close()
		_ = cp.Close()
		cw.closeFlush(0)
	})
	if err := cw.enqueueNotify(Notification{PageID: "wedge", SubscriptionID: 1}, "", time.Time{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the flusher to take the wedge notification", func() bool {
		cw.mu.Lock()
		defer cw.mu.Unlock()
		return cw.count == 0
	})
	return cw, cp
}

func TestWriterCoalescesQueuedRuns(t *testing.T) {
	pubA, pubB := time.Now().Add(-2*time.Millisecond), time.Now().Add(-time.Millisecond)
	type q struct {
		page    string
		version int
		sub     int64
		trace   string
		pub     time.Time
	}
	queue := []q{
		{"a", 1, 11, "", pubA}, {"a", 1, 12, "", pubA}, {"a", 1, 13, "", pubA},
		{"a", 2, 11, "", pubB}, {"a", 2, 12, "", pubB},
		{"a", 2, 13, "0123456789abcdef0123456789abcdef-0123456789abcdef", pubB}, // own trace: own frame
		{"a", 2, 14, "", pubB}, // not adjacent to its publish's run
		{"b", 2, 15, "", pubB},
	}
	want := map[bool][][]int64{
		false: {{1}, {11}, {12}, {13}, {11}, {12}, {13}, {14}, {15}},
		true:  {{1}, {11, 12, 13}, {11, 12}, {13}, {14}, {15}},
	}
	for _, c := range []Codec{JSONCodec(), BinaryCodec()} {
		for _, coalesce := range []bool{false, true} {
			cw, cp := wedgeWriter(t, c, 0, coalesce)
			for _, e := range queue {
				n := Notification{PageID: e.page, Version: e.version, Size: 7, SubscriptionID: e.sub}
				if err := cw.enqueueNotify(n, e.trace, e.pub); err != nil {
					t.Fatal(err)
				}
			}
			frames := readNotifyFrames(t, cp, c, 1+len(queue))
			if len(frames) != len(want[coalesce]) {
				t.Fatalf("%s coalesce=%v: %d frames, want %d", c.Name(), coalesce, len(frames), len(want[coalesce]))
			}
			for i, f := range frames {
				if got := f.subIDs(); !reflect.DeepEqual(got, want[coalesce][i]) {
					t.Fatalf("%s coalesce=%v frame %d: subscriptions %v, want %v", c.Name(), coalesce, i, got, want[coalesce][i])
				}
				if i > 0 && f.m.PublishedAt <= 0 {
					t.Fatalf("%s coalesce=%v frame %d: PublishedAt %d, want > 0", c.Name(), coalesce, i, f.m.PublishedAt)
				}
			}
		}
	}
}

// A run longer than one frame can carry is split at the frame limit or
// at defaultMaxBatch; every notification still arrives, in order.
func TestWriterSplitsRunsAtFrameBounds(t *testing.T) {
	cases := []struct {
		name  string
		codec Codec
		limit int
		run   int
	}{
		{"binary frame limit", BinaryCodec(), 64, 300},
		{"json frame limit", JSONCodec(), 200, 300},
		{"json batch bound", JSONCodec(), 0, 50_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cw, cp := wedgeWriter(t, tc.codec, tc.limit, true)
			pub := time.Now()
			for i := 0; i < tc.run; i++ {
				n := Notification{PageID: "p", Version: 1, SubscriptionID: int64(1000 + i)}
				if err := cw.enqueueNotify(n, "", pub); err != nil {
					t.Fatal(err)
				}
			}
			bound := defaultMaxBatch
			if tc.limit > 0 {
				bound = tc.limit
			}
			frames := readNotifyFrames(t, cp, tc.codec, 1+tc.run)[1:]
			var got []int64
			for i, f := range frames {
				if len(f.raw) > bound {
					t.Fatalf("frame %d: %d bytes, bound %d", i, len(f.raw), bound)
				}
				got = append(got, f.subIDs()...)
			}
			for i, id := range got {
				if id != int64(1000+i) {
					t.Fatalf("notification %d: subscription %d, want %d", i, id, 1000+i)
				}
			}
			if len(frames) < 2 || len(frames) > tc.run/4 {
				t.Fatalf("run of %d in %d frames: want it split, each frame well filled", tc.run, len(frames))
			}
		})
	}
}

// rawSubscriber dials a raw wire connection, sends hello first when
// it is non-nil (switching to the codec the server picks), and
// subscribes n times to topic. It returns the broker-side subscription
// IDs.
func rawSubscriber(t *testing.T, addr string, hello *Message, topic string, n int) (*rawConn, []int64) {
	t.Helper()
	r := dialRaw(t, addr)
	if hello != nil {
		r.send(*hello)
		resp := r.read()
		c, ok := CodecByName(resp.Codec)
		if !ok {
			t.Fatalf("hello answered %+v", resp)
		}
		r.c = c
	}
	ids := make([]int64, n)
	for i := range ids {
		r.send(Message{Type: msgSubscribe, Proxy: i + 1, Topics: []string{topic}})
		resp := r.read()
		if !resp.OK {
			t.Fatalf("subscribe rejected: %+v", resp)
		}
		ids[i] = resp.SubID
	}
	return r, ids
}

// TestCoalescingIsNegotiated: a peer that never sends a hello, and one
// whose hello does not advertise capCoalesce (like the fan-out
// benchmark's subscribers), get exactly one frame per notification; a
// peer that advertises it gets coalesced frames; a Dial'd client
// expands them into one callback per subscription.
func TestCoalescingIsNegotiated(t *testing.T) {
	s, b := startServer(t)
	const subs, publishes = 40, 20
	hello := func(codec string, caps ...string) *Message {
		return &Message{Type: msgHello, Codecs: []string{codec}, Caps: caps}
	}
	peers := []struct {
		name     string
		hello    *Message
		coalesce bool
	}{
		{"no hello", nil, false},
		{"hello without capability", hello(codecBinary), false},
		{"binary hello with capability", hello(codecBinary, capCoalesce), true},
		{"json hello with capability", hello(codecJSON, capCoalesce), true},
	}
	raws := make([]*rawConn, len(peers))
	ids := make([][]int64, len(peers))
	for i, p := range peers {
		raws[i], ids[i] = rawSubscriber(t, s.Addr(), p.hello, "co", subs)
	}
	var mu sync.Mutex
	got := map[int64]int{} // client subscription ID → notifications
	creg := telemetry.NewRegistry()
	cl, err := Dial(context.Background(), s.Addr(),
		WithNotify(func(n Notification) {
			mu.Lock()
			got[n.SubscriptionID]++
			mu.Unlock()
		}),
		WithClientTelemetry(creg))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var clientIDs []int64
	for i := 0; i < subs; i++ {
		id, err := cl.Subscribe(context.Background(), i+1, []string{"co"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		clientIDs = append(clientIDs, id)
	}

	for v := 1; v <= publishes; v++ {
		if _, err := b.Publish(Content{ID: "co-page", Version: v, Topics: []string{"co"}}); err != nil {
			t.Fatal(err)
		}
	}

	for i, p := range peers {
		seen := map[int64]int{}
		frames, notifications := 0, 0
		for notifications < subs*publishes {
			f := wireFrame{m: raws[i].read()}
			if f.m.Type != msgNotify || f.m.Notification == nil {
				t.Fatalf("%s: unexpected frame %+v", p.name, f.m)
			}
			frames++
			for _, id := range f.subIDs() {
				seen[id]++
				notifications++
			}
		}
		for _, id := range ids[i] {
			if seen[id] != publishes {
				t.Fatalf("%s: subscription %d notified %d times, want %d", p.name, id, seen[id], publishes)
			}
		}
		if p.coalesce && frames >= notifications {
			t.Fatalf("%s: %d notifications took %d frames, want fewer", p.name, notifications, frames)
		}
		if !p.coalesce && frames != notifications {
			t.Fatalf("%s: %d notifications took %d frames, want one each", p.name, notifications, frames)
		}
	}

	waitFor(t, "the client to see every notification", func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, n := range got {
			total += n
		}
		return total == subs*publishes
	})
	mu.Lock()
	defer mu.Unlock()
	for _, id := range clientIDs {
		if got[id] != publishes {
			t.Fatalf("client subscription %d notified %d times, want %d", id, got[id], publishes)
		}
	}
	// One delivery-latency sample per notification, not per frame.
	h := creg.Snapshot().Histograms[`transport.client.delivery_latency_ns{codec="binary"}`]
	if h.Count != subs*publishes {
		t.Fatalf("delivery-latency samples = %d, want %d", h.Count, subs*publishes)
	}
}

// TestUnsendableNotifyIsAGap: a notification whose frame exceeds the
// connection's frame limit cannot be sent; the subscriber must learn
// about it through a gap marker instead of silence, and the broker
// counts it as dropped.
func TestUnsendableNotifyIsAGap(t *testing.T) {
	for _, c := range []Codec{JSONCodec(), BinaryCodec()} {
		t.Run(c.Name(), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			b := New()
			s, err := NewServer(b, "127.0.0.1:0", WithMaxFrame(256), WithServerTelemetry(reg))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var gaps atomic.Int64
			delivered := make(chan Notification, 4)
			cl, err := Dial(context.Background(), s.Addr(),
				WithPreferredCodec(c),
				WithNotify(func(n Notification) { delivered <- n }),
				WithNotifyGap(func(missed int64) { gaps.Add(missed) }))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.Subscribe(context.Background(), 1, []string{"g"}, nil); err != nil {
				t.Fatal(err)
			}
			long := string(bytes.Repeat([]byte{'x'}, 400))
			if _, err := b.Publish(Content{ID: long, Version: 1, Topics: []string{"g"}}); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Publish(Content{ID: "short", Version: 1, Topics: []string{"g"}}); err != nil {
				t.Fatal(err)
			}
			select {
			case n := <-delivered:
				if n.PageID != "short" {
					t.Fatalf("delivered %q, want only the short page", n.PageID)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the sendable notification never arrived")
			}
			waitFor(t, "the gap marker", func() bool { return gaps.Load() == 1 })
			if got := reg.Snapshot().Counters[`overload.slow_consumer{action="dropped"}`]; got != 1 {
				t.Fatalf("dropped counter = %d, want 1", got)
			}
		})
	}
}
