package broker

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pubsubcd/internal/core"
	"pubsubcd/internal/match"
	"pubsubcd/internal/telemetry"
)

// rawDial opens a plain TCP connection to the server for protocol-level
// failure injection.
func rawDial(t *testing.T, addr string) (net.Conn, *bufio.Scanner) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return conn, sc
}

func TestServerSurvivesMalformedJSON(t *testing.T) {
	s, _ := startServer(t)
	conn, sc := rawDial(t, s.Addr())
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal("no response to malformed message")
	}
	if !strings.Contains(sc.Text(), "malformed") {
		t.Errorf("response = %q, want malformed-message error", sc.Text())
	}
	// The connection must still work afterwards.
	if _, err := conn.Write([]byte(`{"type":"fetch","id":"x"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal("connection died after malformed message")
	}
	if !strings.Contains(sc.Text(), "unknown page") {
		t.Errorf("response = %q, want unknown-page error", sc.Text())
	}
}

func TestServerRejectsUnknownMessageType(t *testing.T) {
	s, _ := startServer(t)
	conn, sc := rawDial(t, s.Addr())
	if _, err := conn.Write([]byte(`{"type":"teleport"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal("no response")
	}
	var m Message
	if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Error == "" || !strings.Contains(m.Error, "teleport") {
		t.Errorf("error = %q", m.Error)
	}
}

func TestServerRejectsBadBodyEncoding(t *testing.T) {
	s, _ := startServer(t)
	conn, sc := rawDial(t, s.Addr())
	if _, err := conn.Write([]byte(`{"type":"publish","id":"p","body":"!!!not-base64!!!"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal("no response")
	}
	// The JSON codec decodes the body with the frame, so a bad body is
	// a malformed frame: nothing is published and the connection stays.
	if r := sc.Text(); !strings.Contains(r, "malformed message") || !strings.Contains(r, "base64") {
		t.Errorf("response = %q", r)
	}
	if _, err := conn.Write([]byte(`{"type":"fetch","id":"p","seq":2}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal("connection died after a bad body")
	}
	if r := sc.Text(); !strings.Contains(r, ErrUnknownPage.Error()) {
		t.Errorf("fetch after a bad body = %q, want an unknown page", r)
	}
}

func TestServerHandlesAbruptDisconnectMidstream(t *testing.T) {
	s, b := startServer(t)
	conn, sc := rawDial(t, s.Addr())
	if _, err := conn.Write([]byte(`{"type":"subscribe","proxy":1,"topics":["x"]}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal("no subscribe response")
	}
	// Kill the connection without unsubscribing; write a partial line
	// first to exercise the scanner's EOF path.
	if _, err := conn.Write([]byte(`{"type":"pub`)); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for b.Subscriptions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dangling subscriptions after abrupt disconnect: %d", b.Subscriptions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestClientContextCancellation(t *testing.T) {
	s, _ := startServer(t)
	c := dialClient(t, s.Addr(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Fetch(ctx, "x"); err == nil {
		t.Error("cancelled context should fail the round trip")
	}
}

func TestProxyWithTinyCacheNeverStores(t *testing.T) {
	b := New()
	strat, err := core.NewSG2(core.Params{Capacity: 1, Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProxy(0, b, strat, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := b.Subscribe(match.Subscription{Proxy: 0, Topics: []string{"t"}}, NotifierFunc(func(Notification) {})); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(Content{ID: "big", Topics: []string{"t"}, Body: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	// Every request must be served (from the origin) even though the
	// cache can hold nothing.
	for i := 0; i < 3; i++ {
		body, err := p.Request("big")
		if err != nil {
			t.Fatal(err)
		}
		if len(body) != 4096 {
			t.Fatalf("body length %d", len(body))
		}
	}
	st := p.Stats()
	if st.Hits != 0 || st.Fetches != 3 {
		t.Errorf("tiny cache stats: %+v", st)
	}
}

// TestRemoteLinkRecoversAfterPeerRestart bridges a local broker to a
// remote broker over TCP through a RemoteLink, restarts the remote
// peer's transport mid-stream, and requires the bridge to heal: the
// remote subscription is re-established, publications flow again
// end-to-end to the local subscriber, and the reconnect/retry
// telemetry counters advance.
func TestRemoteLinkRecoversAfterPeerRestart(t *testing.T) {
	// Remote peer: a broker served over TCP.
	remote := New()
	server, err := NewServer(remote, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })

	// Local broker: it holds the bridge and the subscriber, so a
	// publication reaches the subscriber only by crossing the link.
	local := New()
	var mu sync.Mutex
	var got []Notification
	if _, err := local.Subscribe(match.Subscription{Proxy: 1, Topics: []string{"world"}}, NotifierFunc(func(n Notification) {
		mu.Lock()
		got = append(got, n)
		mu.Unlock()
	})); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	link, err := NewRemoteLink(ctx, local, server.Addr(), []string{"world"}, nil,
		WithReconnect(fastBackoff()),
		WithRetryBudget(50),
		WithRequestTimeout(50*time.Millisecond),
		WithClientTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	receivedAtLeast := func(n int) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) >= n
		}
	}

	// A remote publication crosses the link to the local subscriber.
	if _, err := remote.Publish(Content{ID: "w", Version: 1, Topics: []string{"world"}, Body: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-restart delivery through the link", receivedAtLeast(1))

	// Restart the remote peer's transport. Hold it down long enough for
	// an in-flight fetch attempt to time out, so the retry path is
	// exercised, not just the redial path.
	addr := server.Addr()
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	fetchErr := make(chan error, 1)
	go func() {
		fctx, fcancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer fcancel()
		_, err := link.Client().Fetch(fctx, "w")
		fetchErr <- err
	}()
	time.Sleep(150 * time.Millisecond) // > request timeout: at least one attempt expires
	deadline := time.Now().Add(10 * time.Second)
	for {
		server, err = NewServer(remote, addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Cleanup(func() { _ = server.Close() })

	if err := <-fetchErr; err != nil {
		t.Fatalf("fetch across peer restart: %v", err)
	}
	waitFor(t, "link resubscription on the restarted peer", func() bool { return remote.Subscriptions() == 1 })

	// Post-recovery publication still reaches the local subscriber.
	if _, err := remote.Publish(Content{ID: "w", Version: 2, Topics: []string{"world"}, Body: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-restart delivery through the link", receivedAtLeast(2))

	for counter, min := range map[string]int64{
		"transport.client.reconnects":   1,
		"transport.client.resubscribes": 1, // one registry entry replayed per reconnect
		"transport.client.retries":      1,
	} {
		if n := reg.Counter(counter).Value(); n < min {
			t.Errorf("%s = %d, want >= %d", counter, n, min)
		}
	}
}

func TestPublishLargeBodyOverTCP(t *testing.T) {
	s, _ := startServer(t)
	c := dialClient(t, s.Addr(), nil)
	ctx := context.Background()
	body := make([]byte, 1<<20)
	for i := range body {
		body[i] = byte(i)
	}
	if _, err := c.Publish(ctx, Content{ID: "huge", Topics: []string{"t"}, Body: body}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Fetch(ctx, "huge")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Body) != len(body) {
		t.Fatalf("fetched %d bytes, want %d", len(got.Body), len(body))
	}
	for i := 0; i < len(body); i += 99991 {
		if got.Body[i] != body[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}
