package broker

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Codec unit coverage: round trips, frame limits, malformed input.

func TestCodecRoundTripAllFields(t *testing.T) {
	in := Message{
		Type: msgNotify, Seq: 42, ID: "page-9", Version: 7,
		Topics: []string{"news", "sports"}, Keywords: []string{"golang"},
		Proxy: 3, Body: []byte{0, 1, 2, 0xff, '\n', '"'}, OK: true,
		Error: "boom", Matched: 5, SubID: -12, Ring: 9, Part: 2,
		Trace: "aaaabbbbccccdddd-1122334455667788-1",
		Notification: &Notification{
			PageID: "page-9", Version: 7, Size: 1 << 40, SubscriptionID: -12,
		},
		Codecs: []string{"binary", "json"}, MaxFrame: 1 << 20, Codec: "binary",
	}
	for _, c := range []Codec{JSONCodec(), BinaryCodec()} {
		frame, err := c.AppendFrame(nil, &in)
		if err != nil {
			t.Fatalf("%s encode: %v", c.Name(), err)
		}
		br := bufio.NewReader(bytes.NewReader(frame))
		payload, err := c.ReadFrame(br, nil, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("%s read: %v", c.Name(), err)
		}
		var out Message
		if err := c.DecodeFrame(payload, &out); err != nil {
			t.Fatalf("%s decode: %v", c.Name(), err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", c.Name(), out, in)
		}
	}
}

func TestCodecByName(t *testing.T) {
	for _, name := range []string{codecJSON, codecBinary} {
		c, ok := CodecByName(name)
		if !ok || c.Name() != name {
			t.Fatalf("CodecByName(%q) = %v, %v", name, c, ok)
		}
	}
	if _, ok := CodecByName("carrier-pigeon"); ok {
		t.Fatal("unknown codec resolved")
	}
}

// Unknown binary fields must be skipped, not rejected: that is the
// forward-compatibility contract new fields rely on.
func TestBinaryDecoderSkipsUnknownFields(t *testing.T) {
	var m Message
	frame, err := BinaryCodec().AppendFrame(nil, &Message{Type: msgPing, Seq: 5})
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[4:]
	payload = appendUvarintField(payload, 63, 999)          // unknown varint field
	payload = appendBytesField(payload, 62, []byte("next")) // unknown bytes field
	if err := BinaryCodec().DecodeFrame(payload, &m); err != nil {
		t.Fatalf("decode with unknown fields: %v", err)
	}
	if m.Type != msgPing || m.Seq != 5 {
		t.Fatalf("decoded %+v", m)
	}
}

func TestReadFrameEnforcesLimitAndKeepsStreamFramed(t *testing.T) {
	big := Message{Type: msgPublish, ID: "big", Body: bytes.Repeat([]byte{'x'}, 4096)}
	small := Message{Type: msgPing, Seq: 2}
	for _, c := range []Codec{JSONCodec(), BinaryCodec()} {
		var stream []byte
		var err error
		if stream, err = c.AppendFrame(stream, &big); err != nil {
			t.Fatal(err)
		}
		if stream, err = c.AppendFrame(stream, &small); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(bytes.NewReader(stream))
		_, err = c.ReadFrame(br, nil, 256)
		var tle *FrameTooLargeError
		if !errors.As(err, &tle) {
			t.Fatalf("%s: oversized frame error = %v, want FrameTooLargeError", c.Name(), err)
		}
		if tle.Codec != c.Name() || tle.Limit != 256 {
			t.Fatalf("%s: error detail %+v", c.Name(), tle)
		}
		// The oversized frame was discarded; the next frame decodes fine.
		payload, err := c.ReadFrame(br, nil, 256)
		if err != nil {
			t.Fatalf("%s: read after oversized frame: %v", c.Name(), err)
		}
		var m Message
		if err := c.DecodeFrame(payload, &m); err != nil || m.Type != msgPing || m.Seq != 2 {
			t.Fatalf("%s: frame after oversized = %+v err=%v", c.Name(), m, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Interop matrix: every server codec policy against every client
// preference, including the pinned-JSON legacy mode that skips the
// hello entirely.

func TestCodecInteropMatrix(t *testing.T) {
	cases := []struct {
		name       string
		serverOpts []ServerOption
		clientOpts []ClientOption
		want       string
	}{
		{"defaults negotiate binary", nil, nil, codecBinary},
		{"json-only server downgrades binary client",
			[]ServerOption{WithCodec(JSONCodec())}, nil, codecJSON},
		{"json-pinned client skips hello",
			nil, []ClientOption{WithPreferredCodec(JSONCodec())}, codecJSON},
		{"binary-first client against default server",
			nil, []ClientOption{WithPreferredCodec(BinaryCodec(), JSONCodec())}, codecBinary},
		{"json-only server, binary-first client",
			[]ServerOption{WithCodec(JSONCodec())},
			[]ClientOption{WithPreferredCodec(BinaryCodec(), JSONCodec())}, codecJSON},
		{"binary-only pair",
			[]ServerOption{WithCodec(BinaryCodec())},
			[]ClientOption{WithPreferredCodec(BinaryCodec())}, codecBinary},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := New()
			s, err := NewServer(b, "127.0.0.1:0", tc.serverOpts...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()

			var mu sync.Mutex
			var notified []Notification
			opts := append([]ClientOption{WithNotify(func(n Notification) {
				mu.Lock()
				notified = append(notified, n)
				mu.Unlock()
			})}, tc.clientOpts...)
			c, err := Dial(ctx, s.Addr(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got := c.Codec(); got != tc.want {
				t.Fatalf("negotiated codec = %q, want %q", got, tc.want)
			}

			// The full verb set must work over whatever was negotiated.
			subID, err := c.Subscribe(ctx, 1, []string{"t"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			body := []byte("payload \x00\xff over " + tc.want)
			if _, err := c.Publish(ctx, Content{ID: "p", Version: 3, Topics: []string{"t"}, Body: body}); err != nil {
				t.Fatal(err)
			}
			got, err := c.Fetch(ctx, "p")
			if err != nil {
				t.Fatal(err)
			}
			if got.Version != 3 || !bytes.Equal(got.Body, body) {
				t.Fatalf("fetch = %+v", got)
			}
			waitFor(t, "notification", func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(notified) >= 1
			})
			mu.Lock()
			n := notified[0]
			mu.Unlock()
			if n.PageID != "p" || n.Version != 3 || n.SubscriptionID != subID {
				t.Fatalf("notification = %+v", n)
			}
			if err := c.Unsubscribe(ctx, subID); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A client whose only codecs the server refuses must fail the dial
// with the server's explanation rather than hang or guess.
func TestNoCommonCodecFailsDial(t *testing.T) {
	b := New()
	s, err := NewServer(b, "127.0.0.1:0", WithCodec(JSONCodec()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = Dial(ctx, s.Addr(), WithPreferredCodec(BinaryCodec()))
	if err == nil || !strings.Contains(err.Error(), "no mutually supported codec") {
		t.Fatalf("dial = %v, want no-common-codec error", err)
	}
}

// A pre-negotiation server answers the hello with an "unknown message
// type" error; a client that still speaks JSON must downgrade
// silently and keep working.
func TestClientDowngradesAgainstLegacyServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// A minimal legacy peer: line JSON only, errors on types it
		// does not know — exactly what an old broker does with a hello.
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			var m Message
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				return
			}
			resp := Message{Type: msgResponse, Seq: m.Seq}
			if m.Type == msgPing {
				resp.OK = true
			} else {
				resp.Error = fmt.Sprintf("unknown message type %q", m.Type)
			}
			out, _ := json.Marshal(resp)
			if _, err := conn.Write(append(out, '\n')); err != nil {
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatalf("dial against legacy server: %v", err)
	}
	defer c.Close()
	if got := c.Codec(); got != codecJSON {
		t.Fatalf("codec after downgrade = %q, want %q", got, codecJSON)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after downgrade: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Frame-limit behaviour end to end.

func TestClientSendRejectsOversizedFrameAndSurvives(t *testing.T) {
	b := New()
	s, err := NewServer(b, "127.0.0.1:0", WithMaxFrame(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The negotiated limit is min(client, server) = the server's 64 KiB:
	// an oversized publish must fail on the write side, without a wire
	// round trip and without severing the connection.
	_, err = c.Publish(ctx, Content{ID: "huge", Version: 1, Topics: []string{"t"}, Body: bytes.Repeat([]byte{'x'}, 1<<17)})
	var tle *FrameTooLargeError
	if !errors.As(err, &tle) {
		t.Fatalf("oversized publish error = %v, want FrameTooLargeError", err)
	}
	if tle.Limit != 1<<16 {
		t.Fatalf("limit in error = %d, want %d", tle.Limit, 1<<16)
	}
	if _, err := c.Publish(ctx, Content{ID: "small", Version: 1, Topics: []string{"t"}, Body: []byte("ok")}); err != nil {
		t.Fatalf("small publish after oversized one: %v", err)
	}
}

// A misbehaving peer that ships an oversized frame anyway gets an
// error response, and the connection (with its subscriptions) stays
// up. Exercised over both codecs via a hand-rolled wire conversation.
func TestServerDiscardsOversizedFrames(t *testing.T) {
	b := New()
	s, err := NewServer(b, "127.0.0.1:0", WithMaxFrame(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	t.Run("json", func(t *testing.T) {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := conn.Write(append(bytes.Repeat([]byte{'a'}, 1<<12), '\n')); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil || !strings.Contains(line, "frame") {
			t.Fatalf("oversized-line response = %q err=%v", line, err)
		}
		// Stream survives: a valid ping still round-trips.
		if _, err := conn.Write([]byte(`{"type":"ping","seq":9}` + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err = br.ReadString('\n')
		if err != nil || !strings.Contains(line, `"ok":true`) {
			t.Fatalf("ping after oversized line = %q err=%v", line, err)
		}
	})

	t.Run("binary", func(t *testing.T) {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		// Upgrade by hand: JSON hello, JSON response, then binary frames.
		if _, err := conn.Write([]byte(`{"type":"hello","seq":1,"codecs":["binary"]}` + "\n")); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil || !strings.Contains(line, `"codec":"binary"`) {
			t.Fatalf("hello response = %q err=%v", line, err)
		}
		bc := BinaryCodec()
		// An in-limit frame whose declared length lies within bounds but
		// exceeds the server's negotiated limit: must be discarded with
		// an error response, stream staying framed.
		over, err := bc.AppendFrame(nil, &Message{Type: msgPublish, Seq: 2, ID: "big", Body: bytes.Repeat([]byte{'x'}, 1<<12)})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := bc.AppendFrame(nil, &Message{Type: msgPing, Seq: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append(over, ok...)); err != nil {
			t.Fatal(err)
		}
		readMsg := func() Message {
			t.Helper()
			payload, err := bc.ReadFrame(br, nil, DefaultMaxFrame)
			if err != nil {
				t.Fatal(err)
			}
			var m Message
			if err := bc.DecodeFrame(payload, &m); err != nil {
				t.Fatal(err)
			}
			return m
		}
		if m := readMsg(); !strings.Contains(m.Error, "frame") {
			t.Fatalf("oversized-frame response = %+v", m)
		}
		if m := readMsg(); !m.OK || m.Seq != 3 {
			t.Fatalf("ping after oversized frame = %+v", m)
		}
	})
}

// ---------------------------------------------------------------------------
// Mixed-codec federation: a JSON-pinned uplink feeding a binary-served
// follower, the exact topology a rolling upgrade produces.

func TestFederationUplinkAcrossCodecs(t *testing.T) {
	upstream, ub := startServer(t)
	follower := New()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// The uplink speaks pinned JSON (an old-build edge broker); the
	// upstream serves binary to everyone else.
	link, err := NewRemoteLink(ctx, follower, upstream.Addr(), []string{"wire"}, nil,
		WithPreferredCodec(JSONCodec()), WithReconnect(fastBackoff()))
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	// A binary publisher on the same upstream.
	pub, err := Dial(ctx, upstream.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if got := pub.Codec(); got != codecBinary {
		t.Fatalf("publisher codec = %q, want binary", got)
	}

	body := []byte("cross-codec \x00 body")
	if _, err := pub.Publish(ctx, Content{ID: "page", Version: 2, Topics: []string{"wire"}, Body: body}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "page republished through the JSON uplink", func() bool {
		c, err := follower.FetchContext(ctx, "page")
		return err == nil && c.Version == 2 && bytes.Equal(c.Body, body)
	})
	_ = ub
}
