// Package faultnet is a fault-injection harness for the broker
// transport: it wraps net.Conn, net.Listener and dialing so tests can
// drop, delay and sever connections on a seeded, reproducible schedule.
// The chaos suite in package broker drives it to simulate broker
// restarts mid-traffic, partitions during publish fan-out, and slow
// networks — all under the race detector.
package faultnet

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjected is the error surfaced by operations the harness killed.
var ErrInjected = errors.New("faultnet: injected fault")

// ErrPartitioned is returned by Dial while the network is partitioned.
var ErrPartitioned = errors.New("faultnet: network partitioned")

// Network is one simulated unreliable network. All connections created
// through its Listener or Dial share its fault schedule; controls may
// be flipped while traffic is flowing.
type Network struct {
	mu          sync.Mutex
	rng         *rand.Rand
	delay       time.Duration
	dropRate    float64
	partitioned bool
	readBps     int // default per-connection byte rates, 0 = unlimited
	writeBps    int
	conns       map[*Conn]struct{}
}

// New returns a network whose random fault schedule is driven by seed,
// so a chaos run is reproducible.
func New(seed int64) *Network {
	return &Network{
		rng:   rand.New(rand.NewSource(seed)),
		conns: make(map[*Conn]struct{}),
	}
}

// SetDelay injects d of extra latency into every write on every
// connection (0 disables).
func (n *Network) SetDelay(d time.Duration) {
	n.mu.Lock()
	n.delay = d
	n.mu.Unlock()
}

// SetDropRate makes each write sever its connection with probability p
// (as a mid-stream TCP failure would), drawn from the seeded schedule.
func (n *Network) SetDropRate(p float64) {
	n.mu.Lock()
	n.dropRate = p
	n.mu.Unlock()
}

// SetThrottle caps every connection's bandwidth, in bytes per second
// per direction (0 = unlimited). It applies to live connections and
// future ones, simulating a slow network.
func (n *Network) SetThrottle(readBps, writeBps int) {
	n.mu.Lock()
	n.readBps, n.writeBps = readBps, writeBps
	conns := make([]*Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.rlim.setRate(readBps)
		c.wlim.setRate(writeBps)
	}
}

// Partition severs every live connection and makes new dials fail and
// new accepts die instantly, until Heal.
func (n *Network) Partition() {
	n.mu.Lock()
	n.partitioned = true
	n.mu.Unlock()
	n.SeverAll()
}

// Heal ends a partition.
func (n *Network) Heal() {
	n.mu.Lock()
	n.partitioned = false
	n.mu.Unlock()
}

// SeverAll kills every live connection once (both directions observe
// an error on their next I/O).
func (n *Network) SeverAll() {
	n.mu.Lock()
	conns := make([]*Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// Conns reports the number of live connections on the network.
func (n *Network) Conns() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// wrap registers a connection with the network.
func (n *Network) wrap(c net.Conn) *Conn {
	fc := &Conn{Conn: c, net: n}
	n.mu.Lock()
	fc.rlim.setRate(n.readBps)
	fc.wlim.setRate(n.writeBps)
	n.conns[fc] = struct{}{}
	n.mu.Unlock()
	return fc
}

// unregister removes a closed connection.
func (n *Network) unregister(c *Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// writeFaults samples the schedule for one write: the injected delay
// and whether to sever the connection instead of writing.
func (n *Network) writeFaults() (time.Duration, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	drop := false
	if n.dropRate > 0 {
		drop = n.rng.Float64() < n.dropRate
	}
	return n.delay, drop || n.partitioned
}

// Listener wraps ln so every accepted connection is subject to the
// network's faults. During a partition accepted connections are severed
// immediately (the accept loop itself keeps running, as a real server
// behind a broken switch would).
func (n *Network) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, net: n}
}

type listener struct {
	net.Listener
	net *Network
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := l.net.wrap(c)
	l.net.mu.Lock()
	partitioned := l.net.partitioned
	l.net.mu.Unlock()
	if partitioned {
		_ = fc.Close()
	}
	return fc, nil
}

// Dial opens a TCP connection through the network; it fails while
// partitioned. Use with broker.WithDialFunc.
func (n *Network) Dial(ctx context.Context, addr string) (net.Conn, error) {
	n.mu.Lock()
	partitioned := n.partitioned
	n.mu.Unlock()
	if partitioned {
		return nil, ErrPartitioned
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return n.wrap(c), nil
}

// Conn is a connection subject to the network's fault schedule.
type Conn struct {
	net.Conn
	net        *Network
	closed     sync.Once
	rlim, wlim rateLimiter
}

// Read passes through at most the throttle's current allowance,
// sleeping when the budget is spent — so a throttled peer drains its
// socket at the configured rate and backpressure builds up exactly as
// it would behind a genuinely slow consumer.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) > 0 {
		if n := c.rlim.allow(len(p)); n < len(p) {
			p = p[:n]
		}
	}
	return c.Conn.Read(p)
}

// Write applies the fault schedule: injected latency, then either a
// severed connection or the real (throttled) write.
func (c *Conn) Write(p []byte) (int, error) {
	delay, sever := c.net.writeFaults()
	if delay > 0 {
		time.Sleep(delay)
	}
	if sever {
		_ = c.Close()
		return 0, ErrInjected
	}
	total := 0
	for len(p) > 0 {
		n := c.wlim.allow(len(p))
		m, err := c.Conn.Write(p[:n])
		total += m
		if err != nil || m < n {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}

// rateLimiter is a token-bucket pacer for one direction of one
// connection. Tokens are bytes, accruing at rate per second up to a
// small burst; allow blocks until at least one token exists, then
// grants up to the available budget. Deterministic — no randomness, so
// throttled chaos runs stay reproducible for a given schedule.
type rateLimiter struct {
	mu     sync.Mutex
	rate   float64 // bytes per second; <= 0 means unlimited
	burst  float64
	tokens float64
	last   time.Time
}

// setRate reconfigures the limiter (0 disables). The bucket restarts
// empty so a rate change takes effect immediately.
func (r *rateLimiter) setRate(bps int) {
	r.mu.Lock()
	r.rate = float64(bps)
	r.burst = r.rate / 10
	if r.burst < 1024 {
		r.burst = 1024
	}
	r.tokens = 0
	r.last = time.Now()
	r.mu.Unlock()
}

// allow blocks until some budget exists and returns the granted byte
// count, at most want. Unlimited limiters grant everything instantly.
func (r *rateLimiter) allow(want int) int {
	r.mu.Lock()
	for {
		if r.rate <= 0 {
			r.mu.Unlock()
			return want
		}
		now := time.Now()
		r.tokens += now.Sub(r.last).Seconds() * r.rate
		if r.tokens > r.burst {
			r.tokens = r.burst
		}
		r.last = now
		if r.tokens >= 1 {
			n := want
			if float64(n) > r.tokens {
				n = int(r.tokens)
			}
			r.tokens -= float64(n)
			r.mu.Unlock()
			return n
		}
		wait := time.Duration((1 - r.tokens) / r.rate * float64(time.Second))
		r.mu.Unlock()
		time.Sleep(wait)
		r.mu.Lock()
	}
}

// Close unregisters the connection and closes the underlying one.
func (c *Conn) Close() error {
	var err error
	c.closed.Do(func() {
		c.net.unregister(c)
		err = c.Conn.Close()
	})
	return err
}
