package broker

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pubsubcd/internal/telemetry"
)

// The batching connection writer. Writes travel in two lanes:
//
//   - The control lane: responses, hello replies, pings/pongs, client
//     requests. Senders encode frames directly into a shared pending
//     buffer; a per-connection flusher goroutine writes whatever has
//     accumulated in one syscall.
//   - The notify lane: a bounded per-connection queue of notifications
//     awaiting encode. The flusher drains it after the control bytes of
//     each flush, so a deep notify backlog can never delay a heartbeat
//     response or a request ack (a full shared buffer used to delay
//     pongs long enough to trip peers' failure detectors).
//
// Notifications sit in the queue unencoded (a Notification is a few
// value fields), which is what makes the slow-consumer policies
// possible: evicting the oldest queued notification is a ring-buffer
// pop, impossible once frames are flattened into a byte stream. The
// flusher encodes at drain time into the same pooled, double-buffered
// byte slices as before, so the steady-state fan-out path stays
// allocation-free.
//
// On a connection whose peer advertised capCoalesce, the flusher also
// coalesces at drain time: the queued notifications directly behind the
// one it pops that come from the same publish (same page, version,
// size, trace context and ingress instant) leave in the same notify
// frame, their subscription IDs in Message.MoreSubIDs. The fan-out
// queues a publish's notifications for a connection as one run
// (enqueueRun: one lock, one wakeup after the whole run), so a publish
// that matched N subscriptions on the connection costs one frame, not
// N. Only what is already queued merges — there is no timer — and the
// ring itself stays per-notification, so the slow-consumer policies,
// gap counts and pending-bytes accounting do not change.
//
// When the notify queue is full the connection's SlowConsumerPolicy
// decides: block the publisher briefly and sever on timeout, drop the
// oldest queued notification and mark the gap on the wire, or sever
// immediately. In every case fan-out to healthy subscribers never
// waits indefinitely on a stalled one.

// defaultMaxBatch bounds the bytes the flusher writes per syscall and
// the control bytes senders may accumulate between flushes. A single
// frame may exceed the bound — it is a batching threshold, not a
// frame-size limit.
const defaultMaxBatch = 256 << 10

// errWriterClosed reports a send on a connection writer that has been
// closed (connection teardown).
var errWriterClosed = errors.New("broker: connection writer closed")

// errSlowConsumer is the sticky error a connection severed by its
// slow-consumer policy reports to subsequent sends.
var errSlowConsumer = errors.New("broker: slow consumer severed")

// notifyFrameOverhead approximates the encoded size of a notify frame
// beyond its variable-length strings. The notify-lane byte accounting
// runs on estimates (the frame is not encoded until drain time); the
// constant only needs to be the right order of magnitude for the
// pending-bytes watermarks to mean what they say.
const notifyFrameOverhead = 48

// Slow-consumer action labels, the values of the
// overload.slow_consumer{action} counter.
const (
	slowActionDropped     = "dropped"     // drop-oldest evicted a queued notify
	slowActionBlocked     = "blocked"     // block policy made a publisher wait
	slowActionSevered     = "severed"     // connection severed by policy
	slowActionQuarantined = "quarantined" // accept rejected while quarantined
)

// encodeBufPool recycles pending/in-flight write buffers across
// connections. Pointer-to-slice keeps Put allocation-free.
var encodeBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 16<<10)
		return &b
	},
}

func getEncodeBuf() []byte { return (*encodeBufPool.Get().(*[]byte))[:0] }

func putEncodeBuf(b []byte) {
	if b == nil || cap(b) > 1<<20 {
		return // oversized one-offs don't pin pool memory
	}
	encodeBufPool.Put(&b)
}

// queuedNotify is one notify-lane entry: the notification by value, its
// trace context, and the byte estimate charged against the queue bound.
// pub is the originating publish's ingress instant (zero when the
// notification did not come from a stamped publish) — the flusher stamps
// the frame's PublishedAt field with the elapsed time since it at encode
// time, so the wire value covers every queueing delay up to the flush.
// enq is the enqueue instant, the zero of the enqueue→flush stage timer;
// it is stamped only while that timer is attached.
type queuedNotify struct {
	n     Notification
	trace string
	est   int64
	pub   time.Time
	enq   time.Time
}

// connWriter serialises and batches all writes of one connection. A
// failed flush is sticky and severs the connection: a stream in an
// unknown state cannot be trusted for framing again.
type connWriter struct {
	conn         net.Conn
	writeTimeout time.Duration
	bytesOut     *telemetry.Counter // all nil when telemetry is off
	timeouts     *telemetry.Counter
	flushes      *telemetry.Counter

	// Notify-lane configuration, set once before the first enqueue.
	policy       SlowConsumerPolicy
	maxPending   int64         // notify-lane byte bound
	pendingTotal *atomic.Int64 // server-wide pending-bytes gauge (nil ok)
	onAction     func(action string, n int64)
	onSever      func() // sever-and-quarantine hook

	mu       sync.Mutex
	cond     *sync.Cond
	codec    Codec
	limit    int  // outbound frame-size limit (0 = unlimited)
	coalesce bool // peer decodes multi-subscription notify frames
	pend     []byte
	spare    []byte // the buffer not currently filling; nil while in flight

	ring      []queuedNotify // notify lane, a growable ring up to maxPending bytes
	head      int
	count     int
	ringBytes int64
	gap       int64 // notifications dropped since the last flushed frame

	// stageFlush, when set, observes the enqueue→flush latency of each
	// drained notification (the queueing segment of the delivery budget).
	stageFlush *telemetry.Histogram

	err    error // sticky flush/sever error
	closed bool
	done   chan struct{} // closed when the flusher exits
}

func newConnWriter(conn net.Conn, codec Codec, limit int, writeTimeout time.Duration, bytesOut, timeouts, flushes *telemetry.Counter) *connWriter {
	cw := &connWriter{
		conn:         conn,
		writeTimeout: writeTimeout,
		bytesOut:     bytesOut,
		timeouts:     timeouts,
		flushes:      flushes,
		codec:        codec,
		limit:        limit,
		maxPending:   defaultMaxBatch,
		pend:         getEncodeBuf(),
		spare:        getEncodeBuf(),
		done:         make(chan struct{}),
	}
	cw.cond = sync.NewCond(&cw.mu)
	go cw.flushLoop()
	return cw
}

// configureNotifyLane sets the slow-consumer policy and hooks before
// the connection serves traffic. maxPending <= 0 keeps the default;
// pendingTotal, onAction and onSever may be nil.
func (cw *connWriter) configureNotifyLane(policy SlowConsumerPolicy, maxPending int64, pendingTotal *atomic.Int64, onAction func(string, int64), onSever func()) {
	cw.mu.Lock()
	cw.policy = policy
	if maxPending > 0 {
		cw.maxPending = maxPending
	}
	cw.pendingTotal = pendingTotal
	cw.onAction = onAction
	cw.onSever = onSever
	cw.mu.Unlock()
}

// setFlushStage attaches the enqueue→flush stage histogram; nil leaves
// the stage untimed (the client side and untelemetered servers).
func (cw *connWriter) setFlushStage(h *telemetry.Histogram) {
	cw.mu.Lock()
	cw.stageFlush = h
	cw.mu.Unlock()
}

// setCodec switches the outbound encoding (and frame limit) after a
// successful negotiation, and turns notify coalescing on when the peer
// advertised it. Control frames already appended were encoded with the
// previous codec and go out unchanged; queued notifications encode at
// drain time with whatever codec is then current (they can only exist
// after a subscribe, which postdates negotiation).
func (cw *connWriter) setCodec(c Codec, limit int, coalesce bool) {
	cw.mu.Lock()
	cw.codec = c
	if limit > 0 {
		cw.limit = limit
	}
	cw.coalesce = coalesce
	cw.mu.Unlock()
}

// send encodes m into the pending control batch. It blocks while the
// batch is at capacity and fails fast once the writer is closed or a
// flush has failed. Control frames never queue behind notifications:
// each flush writes this buffer before draining the notify lane.
func (cw *connWriter) send(m *Message) error {
	cw.mu.Lock()
	for cw.err == nil && !cw.closed && len(cw.pend) >= defaultMaxBatch {
		cw.cond.Wait()
	}
	if cw.err != nil {
		err := cw.err
		cw.mu.Unlock()
		return err
	}
	if cw.closed {
		cw.mu.Unlock()
		return errWriterClosed
	}
	start := len(cw.pend)
	buf, err := cw.codec.AppendFrame(cw.pend, m)
	if err != nil {
		if buf != nil {
			cw.pend = buf[:start]
		}
		cw.mu.Unlock()
		return err
	}
	if cw.limit > 0 && len(buf)-start > cw.limit {
		size := len(buf) - start
		cw.pend = buf[:start]
		cw.mu.Unlock()
		return &FrameTooLargeError{Codec: cw.codec.Name(), Size: size, Limit: cw.limit}
	}
	cw.pend = buf
	if cw.pendingTotal != nil {
		cw.pendingTotal.Add(int64(len(buf) - start))
	}
	if start == 0 && cw.count == 0 && cw.gap == 0 {
		// The flusher only sleeps while it has no work at all, so just
		// the nothing→something transition needs a wakeup; the burst of
		// sends behind it appends silently into the same batch.
		cw.cond.Broadcast()
	}
	cw.mu.Unlock()
	return nil
}

// enqueueRun queues one publish's notification for every subscription
// in ids (n.SubscriptionID is ignored) under a single acquisition of
// cw.mu, and wakes the flusher once, after the whole run is queued — so
// the flusher finds the run complete and sends it as one frame on a
// coalescing connection. The ring, its byte estimates and the gap and
// pending-bytes accounting stay per notification, and when the notify
// lane is at capacity the connection's slow-consumer policy applies to
// each notification as it would to a lone one:
//
//   - SlowConsumerBlock: wait up to defaultBlockTimeout for the flusher to
//     drain; a consumer still stalled after the grace is severed. The
//     flusher is woken before the wait, since the part of the run already
//     queued may be all it has to drain.
//   - SlowConsumerDropOldest: evict the oldest queued notification and
//     record the gap; the next flush carries a gap-marker frame.
//   - SlowConsumerSever: sever immediately and (via onSever) quarantine.
//
// It returns how many notifications it queued. A policy-conformant drop
// returns a nil error — the caller's fan-out must not treat shedding as
// failure. Only sever and teardown return errors; the rest of the run
// is then not queued. pub is the originating publish's ingress instant;
// the zero time means "unknown" and leaves the frame's PublishedAt
// unset.
func (cw *connWriter) enqueueRun(n Notification, ids []int64, trace string, pub time.Time) (int, error) {
	est := notifyFrameOverhead + int64(len(n.PageID)) + int64(len(trace))
	qn := queuedNotify{n: n, trace: trace, est: est, pub: pub}
	cw.mu.Lock()
	if cw.stageFlush != nil {
		qn.enq = time.Now()
	}
	wake := false   // the flusher may be asleep on work queued by this run
	var added int64 // bytes queued but not yet in pendingTotal
	sent := 0
	var err error
	for _, id := range ids {
		if cw.ringBytes+est > cw.maxPending {
			if added != 0 && cw.pendingTotal != nil {
				cw.pendingTotal.Add(added)
			}
			added = 0
			if wake {
				cw.cond.Broadcast()
				wake = false
			}
			cw.makeRoomLocked(est)
		}
		if cw.err != nil {
			err = cw.err
			break
		}
		if cw.closed {
			err = errWriterClosed
			break
		}
		wake = wake || (cw.count == 0 && cw.gap == 0 && len(cw.pend) == 0)
		qn.n.SubscriptionID = id
		cw.pushLocked(qn)
		added += est
		sent++
	}
	if added != 0 && cw.pendingTotal != nil {
		cw.pendingTotal.Add(added)
	}
	if wake {
		// The flusher only sleeps while it has no work at all, so just
		// the nothing→something transition needs a wakeup.
		cw.cond.Broadcast()
	}
	cw.mu.Unlock()
	return sent, err
}

// makeRoomLocked applies the slow-consumer policy to a notification of
// est bytes that does not fit in the notify lane; see enqueueRun.
func (cw *connWriter) makeRoomLocked(est int64) {
	if cw.err != nil || cw.closed {
		return
	}
	switch cw.policy {
	case SlowConsumerDropOldest:
		for cw.count > 0 && cw.ringBytes+est > cw.maxPending {
			cw.dropLocked(1)
		}
	case SlowConsumerSever:
		cw.severLocked()
		if cw.onAction != nil {
			cw.onAction(slowActionSevered, 1)
		}
		if cw.onSever != nil {
			cw.onSever()
		}
	default: // SlowConsumerBlock
		deadline := time.Now().Add(defaultBlockTimeout)
		if cw.onAction != nil {
			cw.onAction(slowActionBlocked, 1)
		}
		for cw.err == nil && !cw.closed && cw.ringBytes+est > cw.maxPending {
			if !cw.waitUntilLocked(deadline) {
				cw.severLocked()
				if cw.onAction != nil {
					cw.onAction(slowActionSevered, 1)
				}
				break
			}
		}
	}
}

// waitUntilLocked waits on the writer's cond until woken or the
// deadline passes; it reports false once the deadline has passed.
// Callers must re-check their predicate: wakeups are shared.
func (cw *connWriter) waitUntilLocked(deadline time.Time) bool {
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	t := time.AfterFunc(d, cw.cond.Broadcast)
	cw.cond.Wait()
	t.Stop()
	return time.Now().Before(deadline)
}

// pushLocked appends to the notify ring, growing it geometrically. The
// byte bound, not the slice, is the real capacity limit.
func (cw *connWriter) pushLocked(qn queuedNotify) {
	if cw.count == len(cw.ring) {
		newCap := 64
		if len(cw.ring) > 0 {
			newCap = 2 * len(cw.ring)
		}
		grown := make([]queuedNotify, newCap)
		for i := 0; i < cw.count; i++ {
			grown[i] = cw.ring[(cw.head+i)%len(cw.ring)]
		}
		cw.ring = grown
		cw.head = 0
	}
	cw.ring[(cw.head+cw.count)%len(cw.ring)] = qn
	cw.count++
	cw.ringBytes += qn.est
}

// popRunLocked removes the n oldest queued notifications, releasing
// their accounting in one step. Callers check count >= n.
func (cw *connWriter) popRunLocked(n int) {
	var est int64
	for i := 0; i < n; i++ {
		est += cw.ring[cw.head].est
		cw.ring[cw.head] = queuedNotify{} // drop string refs
		cw.head = (cw.head + 1) % len(cw.ring)
	}
	cw.count -= n
	cw.ringBytes -= est
	if cw.pendingTotal != nil {
		cw.pendingTotal.Add(-est)
	}
}

// dropLocked evicts the n oldest queued notifications and records the
// wire-visible gap: the drop-oldest policy's evictions, and
// notifications whose frame cannot be sent.
func (cw *connWriter) dropLocked(n int) {
	cw.popRunLocked(n)
	cw.gap += int64(n)
	if cw.onAction != nil {
		cw.onAction(slowActionDropped, int64(n))
	}
}

// runLocked counts the queued notifications, from the ring head on,
// that come from the head's publish: same page, version, size, trace
// context and ingress instant. Callers check count > 0.
func (cw *connWriter) runLocked() int {
	h := &cw.ring[cw.head]
	n := 1
	for ; n < cw.count; n++ {
		q := &cw.ring[(cw.head+n)%len(cw.ring)]
		if q.n.PageID != h.n.PageID || q.n.Version != h.n.Version || q.n.Size != h.n.Size ||
			q.trace != h.trace || !q.pub.Equal(h.pub) {
			break
		}
	}
	return n
}

// appendNotifyLocked appends one notify frame for the notification at
// the ring head to buf and pops what the frame carries: the head alone,
// or, when coalescing, the head's run (runLocked), cut short so the
// frame stays within the frame limit and defaultMaxBatch. em is the
// flusher's reusable envelope; its MoreSubIDs array is reused across
// frames. A notification whose
// frame cannot be sent — it fails to encode, or exceeds the frame limit
// even alone — is dropped and counted in the gap, so the receiver's next
// gap marker accounts for it.
func (cw *connWriter) appendNotifyLocked(buf []byte, em *Message) []byte {
	head := &cw.ring[cw.head]
	run := 1
	if cw.coalesce {
		run = cw.runLocked()
	}
	em.notifScratch = head.n
	em.Trace = head.trace
	// PublishedAt is stamped at encode time on this (the broker's)
	// monotonic clock, so it covers matching, fan-out and every
	// queueing delay, and can never go negative on any receiver.
	em.PublishedAt = 0
	if !head.pub.IsZero() {
		em.PublishedAt = time.Since(head.pub).Nanoseconds()
	}
	bound := defaultMaxBatch
	if cw.limit > 0 && cw.limit < bound {
		bound = cw.limit
	}
	start := len(buf)
	for {
		em.MoreSubIDs = em.MoreSubIDs[:0]
		for i := 1; i < run; i++ {
			em.MoreSubIDs = append(em.MoreSubIDs, cw.ring[(cw.head+i)%len(cw.ring)].n.SubscriptionID)
		}
		nb, err := cw.codec.AppendFrame(buf, em)
		if nb != nil {
			buf = nb[:start]
		}
		if err != nil {
			cw.dropLocked(run)
			return buf
		}
		size := len(nb) - start
		if (cw.limit <= 0 || size <= cw.limit) && (run == 1 || size <= defaultMaxBatch) {
			buf = nb
			break
		}
		if run == 1 {
			cw.dropLocked(1)
			return buf
		}
		// Frame size is close to linear in the run length: shrink in
		// proportion and encode again.
		run = max(1, min(run-1, run*bound/size))
	}
	if cw.stageFlush != nil {
		now := time.Now()
		for i := 0; i < run; i++ {
			if enq := cw.ring[(cw.head+i)%len(cw.ring)].enq; !enq.IsZero() {
				cw.stageFlush.Observe(now.Sub(enq).Nanoseconds())
			}
		}
	}
	cw.popRunLocked(run)
	return buf
}

// severLocked makes the writer's error sticky and closes the
// connection: readers unblock, the peer sees the break, the flusher
// exits on its next pass.
func (cw *connWriter) severLocked() {
	if cw.err == nil {
		cw.err = errSlowConsumer
	}
	_ = cw.conn.Close()
	cw.cond.Broadcast()
}

// releaseRingLocked drops all queued notifications and their
// accounting; called when the flusher exits.
func (cw *connWriter) releaseRingLocked() {
	if cw.pendingTotal != nil && cw.ringBytes > 0 {
		cw.pendingTotal.Add(-cw.ringBytes)
	}
	cw.ring, cw.head, cw.count, cw.ringBytes = nil, 0, 0, 0
}

func (cw *connWriter) flushLoop() {
	defer close(cw.done)
	var em Message // reusable notify envelope; notifScratch keeps encode alloc-free
	em.Type = msgNotify
	em.Notification = &em.notifScratch
	cw.mu.Lock()
	for {
		for cw.err == nil && !cw.closed && len(cw.pend) == 0 && cw.count == 0 && cw.gap == 0 {
			cw.cond.Wait()
		}
		if cw.err != nil || (cw.closed && len(cw.pend) == 0 && cw.count == 0) {
			if cw.pendingTotal != nil && len(cw.pend) > 0 {
				cw.pendingTotal.Add(-int64(len(cw.pend)))
			}
			cw.releaseRingLocked()
			putEncodeBuf(cw.pend)
			putEncodeBuf(cw.spare)
			cw.pend, cw.spare = nil, nil
			cw.mu.Unlock()
			return
		}
		// Control bytes first: a pong or response never waits behind the
		// notify backlog.
		buf := cw.pend
		cw.pend = cw.spare[:0]
		cw.spare = nil // in flight
		if cw.pendingTotal != nil && len(buf) > 0 {
			cw.pendingTotal.Add(-int64(len(buf)))
		}
		for {
			if cw.gap > 0 {
				// A notify frame with a Gap count and no Notification: the
				// wire-visible marker for dropped deliveries. Gap frames
				// are rare (one per overload episode per flush), so the
				// extra envelope allocation is irrelevant.
				gm := Message{Type: msgNotify, Gap: cw.gap}
				if nb, err := cw.codec.AppendFrame(buf, &gm); err == nil {
					buf = nb
				}
				cw.gap = 0
			}
			if cw.count == 0 || len(buf) >= defaultMaxBatch {
				break
			}
			buf = cw.appendNotifyLocked(buf, &em)
		}
		cw.mu.Unlock()

		if cw.writeTimeout > 0 {
			_ = cw.conn.SetWriteDeadline(time.Now().Add(cw.writeTimeout))
		}
		n, werr := cw.conn.Write(buf)
		if cw.bytesOut != nil && n > 0 {
			cw.bytesOut.Add(int64(n))
		}
		if cw.flushes != nil {
			cw.flushes.Inc()
		}

		cw.mu.Lock()
		cw.spare = buf[:0]
		if werr != nil {
			if cw.err == nil {
				cw.err = werr
			}
			if cw.timeouts != nil && isTimeout(werr) {
				cw.timeouts.Inc()
			}
			_ = cw.conn.Close() // sever: readers unblock, peers see the break
		}
		cw.cond.Broadcast() // wake senders blocked on backpressure (or on err)
	}
}

// closeFlush marks the writer closed, lets already-appended frames and
// queued notifications drain for up to the given duration (<=0 means
// one second), then stops the flusher. Closing the underlying
// connection is the caller's job; if it is already closed, the drain
// resolves immediately via a write error.
func (cw *connWriter) closeFlush(drain time.Duration) {
	cw.mu.Lock()
	if cw.closed {
		cw.mu.Unlock()
		<-cw.done
		return
	}
	cw.closed = true
	cw.cond.Broadcast()
	cw.mu.Unlock()
	if drain <= 0 {
		drain = time.Second
	}
	t := time.NewTimer(drain)
	defer t.Stop()
	select {
	case <-cw.done:
	case <-t.C:
		// A stuck peer must not wedge teardown: abort the in-flight
		// write and let the flusher exit on the error.
		_ = cw.conn.SetWriteDeadline(time.Now())
		<-cw.done
	}
}
