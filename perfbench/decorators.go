package main

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"time"

	"pubsubcd/internal/broker"
	"pubsubcd/internal/core"
	"pubsubcd/internal/match"
)

// The timing decorators below wrap one layer's public interface, time
// each call and hand the interval to a callback. They change no result:
// every call is forwarded unchanged, and every optional interface the
// program looks for on the wrapped value is forwarded too, so a
// decorated system takes the same code paths as a plain one.

// interval receives the start and end of one timed call.
type interval func(start, end time.Time)

// strategyTimes aggregates one strategy instance's calls. Atomic because
// a proxy's pushes run on the server's goroutine and its requests on
// the generator's.
type strategyTimes struct {
	pushes, pushNs, stored atomic.Int64
	requests, requestNs    atomic.Int64
}

// timedStrategy times a core.Strategy's Push and Request. onPush and
// onRequest, when set, receive each call's interval and its sequence
// number within the instance, for span recording.
type timedStrategy struct {
	inner     core.Strategy
	t         *strategyTimes
	onPush    func(seq int64, start, end time.Time)
	onRequest func(seq int64, start, end time.Time)
}

func (s *timedStrategy) Name() string    { return s.inner.Name() }
func (s *timedStrategy) Used() int64     { return s.inner.Used() }
func (s *timedStrategy) Capacity() int64 { return s.inner.Capacity() }
func (s *timedStrategy) Len() int        { return s.inner.Len() }

func (s *timedStrategy) Push(p core.PageMeta, version, subs int) bool {
	t0 := time.Now()
	stored := s.inner.Push(p, version, subs)
	t1 := time.Now()
	seq := s.t.pushes.Add(1)
	s.t.pushNs.Add(t1.Sub(t0).Nanoseconds())
	if stored {
		s.t.stored.Add(1)
	}
	if s.onPush != nil {
		s.onPush(seq, t0, t1)
	}
	return stored
}

func (s *timedStrategy) Request(p core.PageMeta, version, subs int) (hit, stored bool) {
	t0 := time.Now()
	hit, stored = s.inner.Request(p, version, subs)
	t1 := time.Now()
	seq := s.t.requests.Add(1)
	s.t.requestNs.Add(t1.Sub(t0).Nanoseconds())
	if s.onRequest != nil {
		s.onRequest(seq, t0, t1)
	}
	return hit, stored
}

// pcFraction is the dual caches' PC/AC partition read-out.
type pcFraction interface{ PCFraction() float64 }

type timedStatsStrategy struct {
	*timedStrategy
	core.StatsProvider
}

type timedPCStrategy struct {
	*timedStrategy
	pcFraction
}

type timedStatsPCStrategy struct {
	*timedStrategy
	core.StatsProvider
	pcFraction
}

// decorate returns s wrapped, keeping whichever of core.StatsProvider
// and PCFraction s implements.
func (s *timedStrategy) decorate() core.Strategy {
	sp, stats := s.inner.(core.StatsProvider)
	pc, part := s.inner.(pcFraction)
	switch {
	case stats && part:
		return &timedStatsPCStrategy{s, sp, pc}
	case stats:
		return &timedStatsStrategy{s, sp}
	case part:
		return &timedPCStrategy{s, pc}
	}
	return s
}

// timedFactory wraps f.New so every instance sim.Run builds is timed;
// times receives each instance's aggregate in construction order.
func timedFactory(f core.Factory, times *[]*strategyTimes, onPush, onRequest func(seq int64, start, end time.Time)) core.Factory {
	inner := f.New
	f.New = func(p core.Params) (core.Strategy, error) {
		s, err := inner(p)
		if err != nil {
			return nil, err
		}
		t := &strategyTimes{}
		*times = append(*times, t)
		return (&timedStrategy{inner: s, t: t, onPush: onPush, onRequest: onRequest}).decorate(), nil
	}
	return f
}

// timedBackend times a broker.Backend's calls. The server looks for
// Durable, RingChecker, RingVersioner and HandoffReceiver on its
// backend; timedBackend implements all four and forwards each to the
// wrapped backend when it has it, otherwise answers exactly as the
// server treats a backend without it.
type timedBackend struct {
	inner                        broker.Backend
	onPublish, onFetch, onSubscr interval
	// onNotify, when set, receives the instant the broker hands each
	// notification to the subscriber's connection.
	onNotify func(at time.Time)
}

func (b *timedBackend) SubscribeContext(ctx context.Context, sub match.Subscription, n broker.Notifier) (int64, error) {
	if b.onNotify != nil {
		n = &timedNotifier{inner: n, onNotify: b.onNotify}
	}
	t0 := time.Now()
	id, err := b.inner.SubscribeContext(ctx, sub, n)
	if b.onSubscr != nil {
		b.onSubscr(t0, time.Now())
	}
	return id, err
}

func (b *timedBackend) Unsubscribe(id int64) error { return b.inner.Unsubscribe(id) }

func (b *timedBackend) PublishContext(ctx context.Context, c broker.Content) (int, error) {
	t0 := time.Now()
	n, err := b.inner.PublishContext(ctx, c)
	if b.onPublish != nil {
		b.onPublish(t0, time.Now())
	}
	return n, err
}

func (b *timedBackend) FetchContext(ctx context.Context, pageID string) (broker.Content, error) {
	t0 := time.Now()
	c, err := b.inner.FetchContext(ctx, pageID)
	if b.onFetch != nil {
		b.onFetch(t0, time.Now())
	}
	return c, err
}

// Durable forwards the graceful-shutdown durability query.
func (b *timedBackend) Durable() bool {
	d, ok := b.inner.(interface{ Durable() bool })
	return ok && d.Durable()
}

// CheckRing forwards broker.RingChecker; a backend without it accepts
// every route, which nil reproduces.
func (b *timedBackend) CheckRing(version uint64, partition int) error {
	if rc, ok := b.inner.(broker.RingChecker); ok {
		return rc.CheckRing(version, partition)
	}
	return nil
}

// RingVersion forwards broker.RingVersioner; 0 is the version the wire
// omits, as for a backend without it.
func (b *timedBackend) RingVersion() uint64 {
	if rv, ok := b.inner.(broker.RingVersioner); ok {
		return rv.RingVersion()
	}
	return 0
}

// errNoHandoff is the server's answer to a handoff its backend cannot
// receive.
var errNoHandoff = errors.New("backend does not accept partition handoffs")

// ReceiveHandoff forwards broker.HandoffReceiver.
func (b *timedBackend) ReceiveHandoff(ctx context.Context, partition int, ringVersion uint64, payload []byte) error {
	if hr, ok := b.inner.(broker.HandoffReceiver); ok {
		return hr.ReceiveHandoff(ctx, partition, ringVersion, payload)
	}
	return errNoHandoff
}

var (
	_ broker.RingChecker     = (*timedBackend)(nil)
	_ broker.RingVersioner   = (*timedBackend)(nil)
	_ broker.HandoffReceiver = (*timedBackend)(nil)
)

// timedNotifier stamps each notification the broker hands to a
// subscription's notifier, forwarding the context when the wrapped
// notifier takes one (the server's does, to carry the trace).
type timedNotifier struct {
	inner    broker.Notifier
	onNotify func(at time.Time)
}

func (n *timedNotifier) Notify(nt broker.Notification) {
	n.NotifyContext(context.Background(), nt)
}

func (n *timedNotifier) NotifyContext(ctx context.Context, nt broker.Notification) {
	n.onNotify(time.Now())
	if cn, ok := n.inner.(broker.ContextNotifier); ok {
		cn.NotifyContext(ctx, nt)
		return
	}
	n.inner.Notify(nt)
}

var _ broker.ContextNotifier = (*timedNotifier)(nil)

// timedFetcher times a proxy's origin fetches, keeping the context (and
// so the deadline and trace) when the wrapped fetcher takes one.
type timedFetcher struct {
	inner   broker.Fetcher
	onFetch interval
}

func (f *timedFetcher) Fetch(pageID string) (broker.Content, error) {
	return f.FetchContext(context.Background(), pageID)
}

func (f *timedFetcher) FetchContext(ctx context.Context, pageID string) (broker.Content, error) {
	t0 := time.Now()
	var c broker.Content
	var err error
	if cf, ok := f.inner.(broker.ContextFetcher); ok {
		c, err = cf.FetchContext(ctx, pageID)
	} else {
		c, err = f.inner.Fetch(pageID)
	}
	if f.onFetch != nil {
		f.onFetch(t0, time.Now())
	}
	return c, err
}

var _ broker.ContextFetcher = (*timedFetcher)(nil)

// codecTimes aggregates a codec's encode and decode calls.
type codecTimes struct {
	encodes, encodeNs atomic.Int64
	decodes, decodeNs atomic.Int64
}

// timedCodec times a wire codec. Name is the wrapped codec's, so the
// hello negotiation picks it exactly as it would the plain one.
type timedCodec struct {
	inner broker.Codec
	t     *codecTimes
}

func (c *timedCodec) Name() string { return c.inner.Name() }

func (c *timedCodec) AppendFrame(dst []byte, m *broker.Message) ([]byte, error) {
	t0 := time.Now()
	out, err := c.inner.AppendFrame(dst, m)
	c.t.encodeNs.Add(time.Since(t0).Nanoseconds())
	c.t.encodes.Add(1)
	return out, err
}

func (c *timedCodec) ReadFrame(br *bufio.Reader, buf []byte, maxFrame int) ([]byte, error) {
	return c.inner.ReadFrame(br, buf, maxFrame)
}

func (c *timedCodec) DecodeFrame(payload []byte, m *broker.Message) error {
	t0 := time.Now()
	err := c.inner.DecodeFrame(payload, m)
	c.t.decodeNs.Add(time.Since(t0).Nanoseconds())
	c.t.decodes.Add(1)
	return err
}

// connTimes counts a connection's reads and the bytes they returned.
type connTimes struct {
	reads, bytesIn atomic.Int64
}

// countingConn counts Read calls. The transport uses no optional
// net.Conn interface, so Read is the only method intercepted.
type countingConn struct {
	net.Conn
	t *connTimes
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.reads.Add(1)
	c.t.bytesIn.Add(int64(n))
	return n, err
}

// instrumentedClient returns the client options that time a client's
// codec and count its connection's reads: a timed codec for each
// default codec, in the default preference order, and a dialer that
// wraps the connection.
func instrumentedClient(ct *codecTimes, nt *connTimes) []broker.ClientOption {
	return []broker.ClientOption{
		broker.WithPreferredCodec(
			&timedCodec{inner: broker.BinaryCodec(), t: ct},
			&timedCodec{inner: broker.JSONCodec(), t: ct},
		),
		broker.WithDialFunc(func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, t: nt}, nil
		}),
	}
}
