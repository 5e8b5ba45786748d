package broker

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pubsubcd/internal/telemetry"
)

// A RemoteLink bridges a local broker into a remote broker across a
// real network: it subscribes to the remote broker over TCP for a set
// of interests, and when a matching page is published remotely it
// fetches the content and republishes it locally, so local subscribers
// and proxies see the remote publication stream.
//
// The link is built on the resilient Client: when the remote peer
// restarts, the link's connection redials with backoff and its remote
// subscription is re-established automatically, making the bridge
// self-healing.

// RemoteLink is a live bridge to a remote broker.
type RemoteLink struct {
	client *Client
	target *Broker
	wg     sync.WaitGroup

	// brk is the uplink circuit breaker: when fetches against the
	// remote broker fail with transport-class errors in a run, the
	// breaker opens and the link sheds incoming notifications outright
	// (counted in dropped) instead of stacking a fetch goroutine —
	// each burning the full retry budget — per notification against a
	// peer known dead. The resilient client's reconnect still heals
	// the connection; the first notification after the cooldown is the
	// half-open probe.
	brk     *Breaker
	dropped atomic.Int64
}

// linkFetchTimeout bounds each content fetch triggered by a remote
// notification.
const linkFetchTimeout = 10 * time.Second

// NewRemoteLink connects target to the remote broker at addr: it
// subscribes remotely for the given topics/keywords and republishes
// every matching page into target. Reconnection is always enabled
// (pass WithReconnect to tune the backoff); the provided options are
// applied on top of the link's defaults, so WithClientTelemetry etc.
// work as for Dial. Close the link to tear the bridge down.
func NewRemoteLink(ctx context.Context, target *Broker, addr string, topics, keywords []string, opts ...ClientOption) (*RemoteLink, error) {
	if target == nil {
		return nil, errors.New("broker: nil link target")
	}
	l := &RemoteLink{target: target, brk: NewBreaker(0, 0)}
	all := make([]ClientOption, 0, len(opts)+2)
	all = append(all, WithReconnect(BackoffPolicy{}))
	all = append(all, opts...)
	// The notify callback must stay the link's own: applied last so an
	// option cannot override it. Context-aware so a traced remote
	// publish continues through the bridge (pass WithClientTracer to
	// record the bridge's own spans).
	all = append(all, WithNotifyContext(l.onNotify))
	client, err := Dial(ctx, addr, all...)
	if err != nil {
		return nil, err
	}
	l.client = client
	if _, err := client.Subscribe(ctx, LinkProxyID, topics, keywords); err != nil {
		_ = client.Close()
		return nil, err
	}
	return l, nil
}

// LinkProxyID is the proxy identifier remote links subscribe under.
const LinkProxyID = 0

// onNotify bridges one remote publication: fetch the page content and
// republish it locally. It runs on the client's read loop, once per
// notify frame (the link's one subscription is all the frame can
// carry), so the blocking fetch+publish is handed to a goroutine. ctx
// carries the remote publisher's trace (when traced), so the bridge's
// fetch and the local republish join that trace.
func (l *RemoteLink) onNotify(ctx context.Context, n Notification, _ []int64) {
	if !l.brk.Allow() {
		// Uplink breaker open: shed the update without spawning a
		// fetch. The page is not lost — the remote broker still holds
		// it, and the next publish (or a proxy fetch) after recovery
		// reads through.
		l.dropped.Add(1)
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		ctx, sp := telemetry.StartSpan(ctx, "link.bridge")
		if sp != nil {
			sp.SetAttr("page", n.PageID)
			defer sp.End()
		}
		ctx, cancel := context.WithTimeout(ctx, linkFetchTimeout)
		defer cancel()
		c, err := l.client.Fetch(ctx, n.PageID)
		if uplinkUnreachable(err) {
			l.brk.Failure()
		} else {
			l.brk.Success()
		}
		if err != nil {
			sp.SetError(err)
			return // the retry budget is spent; drop this update
		}
		if _, err := l.target.PublishContext(ctx, c); err != nil && !IsNotNewer(err) {
			sp.SetError(err)
			return
		}
	}()
}

// uplinkUnreachable classifies fetch failures that mean the remote
// broker is down or unreachable (these trip the breaker), as opposed
// to semantic rejections like an unknown page, which prove it alive.
func uplinkUnreachable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrConnectionLost), errors.Is(err, ErrClientClosed):
		return true
	case errors.Is(err, context.DeadlineExceeded):
		return true
	}
	return false
}

// BreakerState reports the uplink breaker's current state.
func (l *RemoteLink) BreakerState() BreakerState { return l.brk.State() }

// Dropped reports how many remote notifications the open breaker has
// shed since the link was built.
func (l *RemoteLink) Dropped() int64 { return l.dropped.Load() }

// Client exposes the link's underlying resilient client (telemetry,
// liveness checks).
func (l *RemoteLink) Client() *Client { return l.client }

// Close tears the bridge down and waits for in-flight republishes.
func (l *RemoteLink) Close() error {
	err := l.client.Close()
	l.wg.Wait()
	return err
}

// Fetcher adapts the client to the proxy's Fetcher interface, bounding
// each fetch with the given timeout (0 means linkFetchTimeout). With a
// reconnecting client this gives proxies a fetch path that retries
// through broker restarts before the degradation ladder kicks in.
func (c *Client) Fetcher(timeout time.Duration) Fetcher {
	if timeout <= 0 {
		timeout = linkFetchTimeout
	}
	return clientFetcher{c: c, timeout: timeout}
}

type clientFetcher struct {
	c       *Client
	timeout time.Duration
}

func (f clientFetcher) Fetch(pageID string) (Content, error) {
	return f.FetchContext(context.Background(), pageID)
}

// FetchContext implements ContextFetcher: the caller's trace rides the
// fetch frame to the remote broker.
func (f clientFetcher) FetchContext(ctx context.Context, pageID string) (Content, error) {
	ctx, cancel := context.WithTimeout(ctx, f.timeout)
	defer cancel()
	return f.c.Fetch(ctx, pageID)
}
