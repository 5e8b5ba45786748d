package broker

import (
	"context"
	"slices"
	"time"

	"pubsubcd/internal/telemetry"
)

// Notify fan-out. A publish's notification goes to every matched
// subscription, and most subscriptions are delivered over a Server
// connection. The unit of fan-out is therefore a run: one publish's
// notification for all the subscriptions one connection carries. A run
// costs one admission probe, one context probe, one
// transport.server.notify span, one acquisition of the connection
// writer's lock and one flusher wakeup, however many subscriptions it
// holds — and on a coalescing connection it leaves as one frame.
//
// Broker.PublishContext and the cluster's member-link relay both fan out
// through Fanout. What a subscription is delivered through is resolved
// once, when it is registered (ResolveTarget), and stored with it in
// the match engine, not looked up per notification.

// Relabel returns a Notifier that delivers to n under subscription ID
// id, whatever ID the caller notifies it with. A cluster member uses it
// to deliver a partition engine's matches under the node-level IDs its
// peers and clients know. ResolveTarget sees through it, so a relabeled
// connection notifier still receives runs.
func Relabel(id int64, n Notifier) Notifier { return relabeled{id: id, to: n} }

type relabeled struct {
	id int64
	to Notifier
}

func (r relabeled) Notify(nt Notification) {
	nt.SubscriptionID = r.id
	r.to.Notify(nt)
}

func (r relabeled) NotifyContext(ctx context.Context, nt Notification) {
	nt.SubscriptionID = r.id
	r.to.NotifyContext(ctx, nt)
}

// Target is a subscription's resolved delivery path: the Server
// connection and the wire ID its notifications carry, or a plain
// Notifier (an in-process callback, a decorator) that gets one call per
// notification. The zero Target delivers nowhere.
type Target struct {
	conn *connNotifier // non-nil: deliver over this connection
	n    Notifier
	id   int64 // the SubscriptionID the notification carries
}

// ResolveTarget resolves the notifier a subscription registered with,
// and the ID it is notified under, into a Target. Relabel wrappers are
// unwrapped, their ID taking precedence.
func ResolveTarget(n Notifier, id int64) Target {
	for {
		r, ok := n.(relabeled)
		if !ok {
			break
		}
		n, id = r.to, r.id
	}
	if cn, ok := n.(*connNotifier); ok {
		return Target{conn: cn, id: id}
	}
	return Target{n: n, id: id}
}

// fanRun is one connection's share of a fan-out.
type fanRun struct {
	conn *connNotifier
	n    int // IDs added; Deliver reuses it as an offset into Fanout.ids
}

// fanAdd is one connection target in Add order.
type fanAdd struct {
	run int
	id  int64
}

// Fanout groups one notification's targets by delivery connection and
// delivers each connection its run. Add the targets, then Deliver. Reuse
// one Fanout across notifications (not concurrently): it keeps its
// buffers, so the steady-state fan-out allocates nothing. The zero
// value is ready to use.
type Fanout struct {
	runs  []fanRun              // one per connection, in first-seen order
	index map[*connNotifier]int // a connection's run in runs
	last  int                   // the run the previous Add extended
	adds  []fanAdd
	ids   []int64 // the adds' IDs laid out run by run, filled by Deliver
	plain []Target
}

// Add schedules delivery to t. A connection's IDs keep the order they
// are added in: a publish adds the targets the match engine stores
// with its matches, aggregate by aggregate
// (match.Engine.AppendMatchGroups), so a run ascends within each
// aggregate, and across the run only while each aggregate has one
// member.
func (f *Fanout) Add(t Target) {
	cn := t.conn
	if cn == nil {
		if t.n != nil {
			f.plain = append(f.plain, t)
		}
		return
	}
	// Consecutive matches mostly share a connection: check the last run
	// before the index.
	i := f.last
	if i >= len(f.runs) || f.runs[i].conn != cn {
		var ok bool
		if i, ok = f.index[cn]; !ok {
			i = len(f.runs)
			f.runs = append(f.runs, fanRun{conn: cn})
			if f.index == nil {
				f.index = make(map[*connNotifier]int)
			}
			f.index[cn] = i
		}
		f.last = i
	}
	f.runs[i].n++
	f.adds = append(f.adds, fanAdd{run: i, id: t.id})
}

// reserve makes room for n more Adds, so a Fanout fresh from a pool
// grows to a publish's fan-out in one allocation.
func (f *Fanout) reserve(n int) { f.adds = slices.Grow(f.adds, n) }

// Deliver sends n (its SubscriptionID replaced by each target's ID) to
// everything added since the last Deliver, one run per connection and
// one call per plain notifier, and resets f. It returns the number of
// notifications handed on, shed or not.
func (f *Fanout) Deliver(ctx context.Context, n Notification) int {
	count := len(f.plain) + len(f.adds)
	for _, t := range f.plain {
		n.SubscriptionID = t.id
		t.n.NotifyContext(ctx, n)
	}
	// Lay the runs out back to back in ids, each in Add order: a run's
	// n becomes its start offset, then its end offset as it fills.
	f.ids = slices.Grow(f.ids[:0], len(f.adds))[:len(f.adds)]
	off := 0
	for i := range f.runs {
		r := &f.runs[i]
		off, r.n = off+r.n, off
	}
	for _, a := range f.adds {
		r := &f.runs[a.run]
		f.ids[r.n] = a.id
		r.n++
	}
	start := 0
	for i := range f.runs {
		r := &f.runs[i]
		r.conn.notifyRun(ctx, n, f.ids[start:r.n])
		start = r.n
	}
	f.reset()
	return count
}

// reset empties f, keeping its buffers but no references to notifiers
// or connections.
func (f *Fanout) reset() {
	clear(f.plain)
	f.plain = f.plain[:0]
	clear(f.runs)
	f.runs = f.runs[:0]
	f.adds = f.adds[:0]
	f.last = 0
	clear(f.index)
}

// connNotifier delivers a subscription's notifications over a Server
// connection. Fanout hands it whole runs (notifyRun); as a Notifier it
// takes runs of one, for callers that wrap it. A notify caused by a
// traced publish carries a transport.server.notify span whose identity
// rides the notify frame, so the subscriber's reaction (e.g. a remote
// link's bridge fetch) continues the publish's trace.
type connNotifier struct {
	s  *Server
	cw *connWriter
}

func (cn *connNotifier) Notify(n Notification) { cn.NotifyContext(context.Background(), n) }

func (cn *connNotifier) NotifyContext(ctx context.Context, n Notification) {
	ids := [1]int64{n.SubscriptionID}
	cn.notifyRun(ctx, n, ids[:])
}

// notifyRun queues n for the subscriptions ids on the connection.
func (cn *connNotifier) notifyRun(ctx context.Context, n Notification, ids []int64) {
	s := cn.s
	// Broker-wide shedding: past the pending-bytes high watermark every
	// notification is dropped at the door — a missed refresh is the
	// cheapest work the broker can decline, and control traffic and
	// publishes keep flowing. (Per-connection overflow is handled by
	// the connWriter's slow-consumer policy instead.)
	if s.admission != nil && s.admission.shedNotify() {
		if sm := s.metrics; sm != nil {
			sm.shed.With(shedClassNotify).Add(int64(len(ids)))
		}
		return
	}
	var sp *telemetry.Span
	var trace string
	// One context probe per run: an untraced publish (the steady-state
	// fan-out path) skips span creation entirely.
	if sc := telemetry.SpanContextFromContext(ctx); sc.Valid() {
		_, sp = telemetry.StartSpan(ctx, "transport.server.notify")
		if sp != nil {
			sp.SetAttr("page", n.PageID)
			sp.SetAttrInt("notifications", int64(len(ids)))
			trace = sp.Context().String()
		} else {
			// No local collector but the caller is traced: still propagate.
			trace = sc.String()
		}
	}
	sent, err := cn.cw.enqueueRun(n, ids, trace)
	if sm := s.metrics; sm != nil && sent > 0 {
		sm.notifySends.Add(int64(sent))
		if !n.ingress.IsZero() {
			sm.stageFanoutEnqueue.ObserveN(time.Since(n.ingress).Nanoseconds(), int64(sent))
		}
	}
	sp.SetError(err)
	sp.End()
}
