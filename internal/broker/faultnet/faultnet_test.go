package faultnet

import (
	"bufio"
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections on ln and echoes lines back.
func echoServer(t *testing.T, ln net.Listener) {
	t.Helper()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					if _, err := conn.Write(append(sc.Bytes(), '\n')); err != nil {
						return
					}
				}
				_ = conn.Close()
			}()
		}
	}()
}

func harness(t *testing.T, seed int64) (*Network, string) {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := New(seed)
	ln := n.Listener(raw)
	t.Cleanup(func() { _ = ln.Close() })
	echoServer(t, ln)
	return n, raw.Addr().String()
}

func roundTrip(conn net.Conn, sc *bufio.Scanner, line string) (string, error) {
	if _, err := conn.Write([]byte(line + "\n")); err != nil {
		return "", err
	}
	if !sc.Scan() {
		return "", errors.New("connection closed")
	}
	return sc.Text(), nil
}

func TestPassThrough(t *testing.T) {
	n, addr := harness(t, 1)
	conn, err := n.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	got, err := roundTrip(conn, sc, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Errorf("echo = %q", got)
	}
	if n.Conns() != 2 { // client side + accepted side
		t.Errorf("Conns() = %d, want 2", n.Conns())
	}
}

func TestDelayIsApplied(t *testing.T) {
	n, addr := harness(t, 1)
	conn, err := n.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	n.SetDelay(30 * time.Millisecond)
	start := time.Now()
	if _, err := roundTrip(conn, sc, "x"); err != nil {
		t.Fatal(err)
	}
	// Both directions pay the delay: the client write and the echo.
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("round trip took %v, want >= 50ms with 30ms per-write delay", d)
	}
}

func TestDropRateSeversDeterministically(t *testing.T) {
	// With drop rate 1 the very first write must sever the connection.
	n, addr := harness(t, 1)
	conn, err := n.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	n.SetDropRate(1)
	if _, err := conn.Write([]byte("x\n")); !errors.Is(err, ErrInjected) {
		t.Errorf("write error = %v, want ErrInjected", err)
	}
	// The severed side is gone; only the accepted side may linger until
	// it notices.
	if c := n.Conns(); c > 1 {
		t.Errorf("Conns() = %d after sever, want <= 1", c)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n, addr := harness(t, 1)
	conn, err := n.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	if _, err := roundTrip(conn, sc, "pre"); err != nil {
		t.Fatal(err)
	}

	n.Partition()
	// Existing connections are severed...
	if _, err := conn.Write([]byte("x\n")); err == nil {
		// The write might have raced the sever; the next one cannot.
		if _, err2 := conn.Write([]byte("y\n")); err2 == nil {
			t.Error("writes succeed through a partition")
		}
	}
	// ...and new dials fail.
	if _, err := n.Dial(context.Background(), addr); !errors.Is(err, ErrPartitioned) {
		t.Errorf("dial during partition = %v, want ErrPartitioned", err)
	}

	n.Heal()
	conn2, err := n.Dial(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	defer conn2.Close()
	sc2 := bufio.NewScanner(conn2)
	if got, err := roundTrip(conn2, sc2, "post"); err != nil || got != "post" {
		t.Errorf("post-heal round trip: %q, %v", got, err)
	}
}

func TestSeverAllKillsEveryConnection(t *testing.T) {
	n, addr := harness(t, 1)
	var conns []net.Conn
	for i := 0; i < 3; i++ {
		c, err := n.Dial(context.Background(), addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns = append(conns, c)
	}
	// A dial registers its client end at once and its server end only
	// when the echo server accepts; sever once all six ends are live,
	// or a late accept lands after SeverAll.
	for deadline := time.Now().Add(5 * time.Second); n.Conns() != 6; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("Conns() = %d before SeverAll, want 6", n.Conns())
		}
	}
	n.SeverAll()
	if c := n.Conns(); c != 0 {
		t.Errorf("Conns() = %d after SeverAll, want 0", c)
	}
	for i, c := range conns {
		if _, err := c.Write([]byte("x\n")); err == nil {
			t.Errorf("conn %d still writable after SeverAll", i)
		}
	}
}
