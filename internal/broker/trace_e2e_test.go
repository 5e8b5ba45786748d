package broker

import (
	"context"
	"testing"
	"time"

	"pubsubcd/internal/core"
	"pubsubcd/internal/match"
	"pubsubcd/internal/telemetry"
)

// TestDistributedTraceAcrossFederatedPair publishes through a real
// two-broker federation — a hub behind the TCP transport and a leaf
// bridged in with a RemoteLink — with a proxy on the leaf, and asserts
// that the whole flow lands in ONE trace: transport send, broker match,
// notify, bridge fetch, republish, push placement, and a later cache
// hit, all with correct parent/child nesting.
func TestDistributedTraceAcrossFederatedPair(t *testing.T) {
	spans := telemetry.NewSpanCollector(telemetry.CollectorOptions{})

	// Hub broker behind the wire protocol, tracing on.
	hub := New()
	srv, err := NewServer(hub, "127.0.0.1:0", WithServerTracer(spans))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Leaf broker with a proxy whose placement the trace records.
	leaf := New()
	strat, err := core.NewSG2(core.Params{Capacity: 1 << 20, Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	prox, err := NewProxy(1, leaf, strat, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer prox.Close()
	if _, err := leaf.Subscribe(match.Subscription{Proxy: 1, Topics: []string{"news"}},
		NotifierFunc(func(Notification) {})); err != nil {
		t.Fatal(err)
	}

	dialCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	link, err := NewRemoteLink(dialCtx, leaf, srv.Addr(), []string{"news"}, nil,
		WithClientTracer(spans))
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	pub, err := Dial(dialCtx, srv.Addr(), WithClientTracer(spans))
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// The whole flow runs under one explicit root span, the way an
	// instrumented publisher would wrap its request handler.
	ctx := telemetry.WithSpanCollector(context.Background(), spans)
	ctx, root := telemetry.StartSpan(ctx, "test.publish")
	tid := root.Context().TraceID

	if _, err := pub.Publish(ctx, Content{
		ID: "story-1", Version: 0, Topics: []string{"news"}, Body: []byte("breaking"),
	}); err != nil {
		t.Fatal(err)
	}

	// The bridge fetch + republish is asynchronous; wait for the page to
	// land in the leaf proxy.
	deadline := time.Now().Add(5 * time.Second)
	for prox.Stats().PushesStored < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("page never placed on the leaf proxy: %+v", prox.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A later request under the same trace must be a local cache hit.
	body, err := prox.RequestContext(ctx, "story-1")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "breaking" {
		t.Fatalf("cache served %q", body)
	}
	root.End()

	// Collect until every expected stage is in the trace (the bridge's
	// spans may still be ending when the push lands).
	want := []string{
		"test.publish",
		"transport.client.publish",
		"transport.server.publish",
		"broker.publish",
		"broker.match",
		"transport.server.notify",
		"link.bridge",
		"transport.client.fetch",
		"transport.server.fetch",
		"broker.fetch",
		"broker.push",
		"proxy.push",
		"proxy.request",
	}
	var td *telemetry.TraceData
	for {
		var ok bool
		td, ok = spans.Trace(tid)
		if ok && hasAllSpans(td, want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace incomplete after 5s: have %v, want %v", spanNames(td), want)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Every span really is in the one trace.
	for _, s := range td.Spans {
		if s.TraceID != tid {
			t.Fatalf("span %s carries trace %s, want %s", s.Name, s.TraceID, tid)
		}
	}

	byID := make(map[telemetry.SpanID]telemetry.SpanData, len(td.Spans))
	for _, s := range td.Spans {
		byID[s.SpanID] = s
	}
	parentName := func(s telemetry.SpanData) string { return byID[s.ParentID].Name }
	find := func(name, parent string) telemetry.SpanData {
		t.Helper()
		for _, s := range td.Spans {
			if s.Name == name && parentName(s) == parent {
				return s
			}
		}
		t.Fatalf("no %s span parented under %s; trace:\n%v", name, parent, spanNames(td))
		return telemetry.SpanData{}
	}

	// Hub side: publisher → wire → broker → match, notify.
	find("transport.client.publish", "test.publish")
	find("transport.server.publish", "transport.client.publish")
	hubPub := find("broker.publish", "transport.server.publish")
	find("broker.match", "broker.publish")
	if notify := find("transport.server.notify", "broker.publish"); notify.ParentID != hubPub.SpanID {
		t.Error("notify not under the hub publish")
	}

	// Bridge: notify → link fetch → leaf republish.
	find("link.bridge", "transport.server.notify")
	find("transport.client.fetch", "link.bridge")
	find("transport.server.fetch", "transport.client.fetch")
	find("broker.fetch", "transport.server.fetch")
	leafPub := find("broker.publish", "link.bridge")
	if leafPub.SpanID == hubPub.SpanID {
		t.Fatal("hub and leaf publish collapsed into one span")
	}

	// Placement on the leaf.
	push := find("broker.push", "broker.publish")
	if push.ParentID != leafPub.SpanID {
		t.Errorf("broker.push parented under %s, want the leaf publish", parentName(push))
	}
	proxPush := find("proxy.push", "broker.push")
	if got := attr(proxPush, "stored"); got != "true" {
		t.Errorf("proxy.push stored=%q, want true", got)
	}

	// The later cache hit joins the same trace under the test root.
	req := find("proxy.request", "test.publish")
	if got := attr(req, "outcome"); got != "hit" {
		t.Errorf("proxy.request outcome=%q, want hit", got)
	}
}

// TestDurableSubscribeTracesJournalAppend: a traced subscribe on a
// durable broker records its write-ahead append as a journal.append
// span under broker.subscribe — the one path that emits that span.
func TestDurableSubscribeTracesJournalAppend(t *testing.T) {
	b, err := Open(WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	spans := telemetry.NewSpanCollector(telemetry.CollectorOptions{})
	ctx := telemetry.WithSpanCollector(context.Background(), spans)
	ctx, root := telemetry.StartSpan(ctx, "test.subscribe")
	tid := root.Context().TraceID
	if _, err := b.SubscribeContext(ctx, match.Subscription{Proxy: 1, Topics: []string{"news"}},
		NotifierFunc(func(Notification) {})); err != nil {
		t.Fatal(err)
	}
	root.End()

	td, ok := spans.Trace(tid)
	if !ok {
		t.Fatal("subscribe trace not retained")
	}
	byID := make(map[telemetry.SpanID]telemetry.SpanData, len(td.Spans))
	for _, s := range td.Spans {
		byID[s.SpanID] = s
	}
	var sub, app *telemetry.SpanData
	for i, s := range td.Spans {
		switch s.Name {
		case "broker.subscribe":
			sub = &td.Spans[i]
		case "journal.append":
			app = &td.Spans[i]
		}
	}
	if sub == nil || app == nil {
		t.Fatalf("trace lacks broker.subscribe or journal.append: %v", spanNames(td))
	}
	if byID[sub.ParentID].Name != "test.subscribe" {
		t.Errorf("broker.subscribe parented under %q, want test.subscribe", byID[sub.ParentID].Name)
	}
	if app.ParentID != sub.SpanID {
		t.Errorf("journal.append parented under %q, want broker.subscribe", byID[app.ParentID].Name)
	}
}

func hasAllSpans(td *telemetry.TraceData, want []string) bool {
	if td == nil {
		return false
	}
	have := make(map[string]bool, len(td.Spans))
	for _, s := range td.Spans {
		have[s.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			return false
		}
	}
	return true
}

func spanNames(td *telemetry.TraceData) []string {
	if td == nil {
		return nil
	}
	names := make([]string, 0, len(td.Spans))
	for _, s := range td.Spans {
		names = append(names, s.Name)
	}
	return names
}

func attr(s telemetry.SpanData, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}
