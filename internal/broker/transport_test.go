package broker

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func startServer(t *testing.T) (*Server, *Broker) {
	t.Helper()
	b := New()
	s, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, b
}

func dialClient(t *testing.T, addr string, onNotify func(Notification)) *Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := Dial(ctx, addr, WithNotify(onNotify))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestTCPSubscribePublishNotify(t *testing.T) {
	s, _ := startServer(t)
	var mu sync.Mutex
	var got []Notification
	sub := dialClient(t, s.Addr(), func(n Notification) {
		mu.Lock()
		got = append(got, n)
		mu.Unlock()
	})
	pub := dialClient(t, s.Addr(), nil)

	ctx := context.Background()
	id, err := sub.Subscribe(ctx, 3, []string{"sports"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("zero subscription ID")
	}
	matched, err := pub.Publish(ctx, Content{
		ID: "match-report", Topics: []string{"sports"}, Body: []byte("3-0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if matched != 1 {
		t.Fatalf("matched = %d, want 1", matched)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("notification not delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	n := got[0]
	mu.Unlock()
	if n.PageID != "match-report" || n.Size != 3 {
		t.Errorf("notification = %+v", n)
	}
}

func TestTCPFetch(t *testing.T) {
	s, _ := startServer(t)
	c := dialClient(t, s.Addr(), nil)
	ctx := context.Background()
	if _, err := c.Publish(ctx, Content{ID: "p", Version: 2, Topics: []string{"t"}, Body: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	content, err := c.Fetch(ctx, "p")
	if err != nil {
		t.Fatal(err)
	}
	if content.Version != 2 || string(content.Body) != "hello" {
		t.Errorf("fetched %+v", content)
	}
	if _, err := c.Fetch(ctx, "missing"); err == nil {
		t.Error("fetch of unknown page should error")
	}
}

func TestTCPUnsubscribe(t *testing.T) {
	s, b := startServer(t)
	c := dialClient(t, s.Addr(), func(Notification) {})
	ctx := context.Background()
	id, err := c.Subscribe(ctx, 0, []string{"x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Subscriptions() != 1 {
		t.Fatalf("server should hold 1 subscription, has %d", b.Subscriptions())
	}
	if err := c.Unsubscribe(ctx, id); err != nil {
		t.Fatal(err)
	}
	if b.Subscriptions() != 0 {
		t.Errorf("server should hold 0 subscriptions, has %d", b.Subscriptions())
	}
	if err := c.Unsubscribe(ctx, id); err == nil {
		t.Error("double unsubscribe should error")
	}
}

func TestTCPDisconnectCleansSubscriptions(t *testing.T) {
	s, b := startServer(t)
	c := dialClient(t, s.Addr(), func(Notification) {})
	ctx := context.Background()
	if _, err := c.Subscribe(ctx, 0, []string{"x"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe(ctx, 0, []string{"y"}, nil); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for b.Subscriptions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriptions not cleaned after disconnect: %d", b.Subscriptions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTCPSubscriptionValidationError(t *testing.T) {
	s, _ := startServer(t)
	c := dialClient(t, s.Addr(), nil)
	if _, err := c.Subscribe(context.Background(), 0, nil, nil); err == nil {
		t.Error("empty subscription should surface the server error")
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	s, b := startServer(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dialClient(t, s.Addr(), func(Notification) {})
			if _, err := c.Subscribe(ctx, i, []string{"shared"}, nil); err != nil {
				t.Error(err)
				return
			}
			if _, err := c.Publish(ctx, Content{
				ID: pageName(i), Topics: []string{"solo"}, Body: []byte("b"),
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if b.Subscriptions() != 5 {
		t.Errorf("Subscriptions = %d, want 5", b.Subscriptions())
	}
	c := dialClient(t, s.Addr(), nil)
	matched, err := c.Publish(ctx, Content{ID: "common", Topics: []string{"shared"}, Body: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if matched != 5 {
		t.Errorf("matched = %d, want 5", matched)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	b := New()
	s, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close should be a no-op, got %v", err)
	}
}

func TestIsNotNewer(t *testing.T) {
	b := New()
	page := Content{ID: "p", Version: 2, Topics: []string{"t"}}
	if _, err := b.Publish(page); err != nil {
		t.Fatal(err)
	}
	_, local := b.Publish(page)

	// The same rejection as a client sees it: carried over the wire as
	// a string in the response frame.
	s, _ := startServer(t)
	cl := dialClient(t, s.Addr(), func(Notification) {})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.Publish(ctx, page); err != nil {
		t.Fatal(err)
	}
	_, wire := cl.Publish(ctx, Content{ID: "p", Version: 1, Topics: []string{"t"}})

	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"local same version", local, true},
		{"over the wire, older version", wire, true},
		{"wrapped", fmt.Errorf("forward: %w", local), true},
		{"nil", nil, false},
		{"unknown page", fmt.Errorf("%w: %q", ErrUnknownPage, "p"), false},
		{"stale ring", StaleRingError("ring %d behind %d", 1, 2), false},
		{"overloaded", OverloadedError("busy"), false},
	} {
		if got := IsNotNewer(tc.err); got != tc.want {
			t.Errorf("%s: IsNotNewer(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}
