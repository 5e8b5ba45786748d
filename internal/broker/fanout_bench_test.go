package broker

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// The publish→fan-out benchmark behind BENCH_broker.json: one
// publisher round-trips publishes through a real server while raw
// subscriber connections (16 conns × 512 subscriptions each = 8 192
// notifications per publish) drain the fan-out without decoding, so
// the measured cost is the transport's — encode, batch, write — not
// the test's. The JSON and binary variants differ only in the
// negotiated codec; comparing them is the headline number for the
// binary wire protocol work. Their subscribers do not advertise
// capCoalesce, so every notification is its own frame; the coalesced
// variant differs from the binary one only in advertising it.

const (
	benchFanoutConns = 16
	benchSubsPerConn = 512
)

// startSubscriberConn dials addr raw, negotiates the given codec (a
// JSON hello, exactly as a real client, offering caps), registers subs
// subscriptions and then drains everything the server sends without
// decoding it.
func startSubscriberConn(b *testing.B, addr string, c Codec, subs int, caps ...string) net.Conn {
	b.Helper()
	conn, br := setupSubscriberConn(b, addr, c, subs, caps...)
	go func() { _, _ = io.Copy(io.Discard, br) }()
	return conn
}

// setupSubscriberConn is startSubscriberConn without the drain: it
// hands the connection back subscribed and negotiated, and the caller
// decides how (fast or slow) to read the fan-out.
func setupSubscriberConn(b *testing.B, addr string, c Codec, subs int, caps ...string) (net.Conn, *bufio.Reader) {
	b.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	br := bufio.NewReader(conn)
	enc := Codec(jsonCodec{})
	readMsg := func() Message {
		b.Helper()
		payload, err := enc.ReadFrame(br, nil, DefaultMaxFrame)
		if err != nil {
			b.Fatal(err)
		}
		var m Message
		if err := enc.DecodeFrame(payload, &m); err != nil {
			b.Fatal(err)
		}
		if m.Error != "" {
			b.Fatalf("server error: %s", m.Error)
		}
		return m
	}
	if c.Name() != codecJSON {
		frame, err := enc.AppendFrame(nil, &Message{Type: msgHello, Seq: 1, Codecs: []string{c.Name()}, Caps: caps})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			b.Fatal(err)
		}
		if resp := readMsg(); resp.Codec != c.Name() {
			b.Fatalf("negotiated %q, want %q", resp.Codec, c.Name())
		}
		enc = c
	}
	var out []byte
	for i := 0; i < subs; i++ {
		out, err = enc.AppendFrame(out, &Message{Type: msgSubscribe, Seq: uint64(i + 2), Topics: []string{"t"}, Proxy: i + 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, err := conn.Write(out); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < subs; i++ {
		readMsg()
	}
	return conn, br
}

// warmFanout runs a handful of untimed publishes so one-time costs —
// notify-ring growth to the subscription count, pooled encode-buffer
// sizing — land before the clock starts. The committed baselines are
// steady-state numbers; short CI runs (-benchtime=20x) must measure
// the same regime.
func warmFanout(b *testing.B, pub *Client, body []byte) {
	b.Helper()
	for v := 1; v <= 4; v++ {
		if _, err := pub.Publish(context.Background(), Content{ID: "warm", Version: v, Topics: []string{"t"}, Body: body}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkBrokerFanout(b *testing.B, c Codec, caps ...string) {
	bk := New()
	s, err := NewServer(bk, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < benchFanoutConns; i++ {
		conn := startSubscriberConn(b, s.Addr(), c, benchSubsPerConn, caps...)
		defer conn.Close()
	}
	ctx := context.Background()
	pub, err := Dial(ctx, s.Addr(), WithPreferredCodec(c))
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	if got := pub.Codec(); got != c.Name() {
		b.Fatalf("publisher codec = %q, want %q", got, c.Name())
	}

	body := bytes.Repeat([]byte{'x'}, 4096)
	warmFanout(b, pub, body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	// Pipelined publishers share the one connection, so the measure is
	// the transport's throughput (encode, batch, fan-out), not a single
	// round trip's latency. Distinct page IDs per publisher keep the
	// broker's monotonic-version check out of the way.
	var pubID atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := fmt.Sprintf("p%d", pubID.Add(1))
		content := Content{ID: id, Topics: []string{"t"}, Body: body}
		for pb.Next() {
			content.Version++
			if _, err := pub.Publish(ctx, content); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBrokerFanoutJSON(b *testing.B)   { benchmarkBrokerFanout(b, JSONCodec()) }
func BenchmarkBrokerFanoutBinary(b *testing.B) { benchmarkBrokerFanout(b, BinaryCodec()) }

// BenchmarkBrokerFanoutCoalesced is the binary fan-out with subscribers
// that advertise capCoalesce: each connection's 512 notifications of a
// publish leave as one multi-subscription frame instead of 512.
func BenchmarkBrokerFanoutCoalesced(b *testing.B) {
	benchmarkBrokerFanout(b, BinaryCodec(), capCoalesce)
}

// BenchmarkSlowConsumerFanout is the overload-control gate: the same
// binary fan-out as BenchmarkBrokerFanoutBinary, with one extra
// subscriber connection reading at a trickle while the server runs the
// drop-oldest slow-consumer policy. Its floor in BENCH_broker.json is
// the tentpole claim in numbers — a stalled subscriber must cost the
// publish path (nearly) nothing, because fan-out sheds into that
// connection's bounded notify lane instead of waiting on its socket.
func BenchmarkSlowConsumerFanout(b *testing.B) {
	c := BinaryCodec()
	bk := New()
	s, err := NewServer(bk, "127.0.0.1:0",
		WithSlowConsumerPolicy(SlowConsumerDropOldest),
		WithMaxPendingPerConn(64<<10))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < benchFanoutConns; i++ {
		conn := startSubscriberConn(b, s.Addr(), c, benchSubsPerConn)
		defer conn.Close()
	}
	// The slow consumer: same subscription load as a healthy conn, but
	// it reads a few hundred bytes per 10ms tick — orders of magnitude
	// behind the fan-out rate.
	slow, slowBR := setupSubscriberConn(b, s.Addr(), c, benchSubsPerConn)
	defer slow.Close()
	go func() {
		buf := make([]byte, 512)
		for {
			if _, err := slowBR.Read(buf); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	ctx := context.Background()
	pub, err := Dial(ctx, s.Addr(), WithPreferredCodec(c))
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()

	body := bytes.Repeat([]byte{'x'}, 4096)
	warmFanout(b, pub, body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	var pubID atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := fmt.Sprintf("p%d", pubID.Add(1))
		content := Content{ID: id, Topics: []string{"t"}, Body: body}
		for pb.Next() {
			content.Version++
			if _, err := pub.Publish(ctx, content); err != nil {
				b.Fatal(err)
			}
		}
	})
}
