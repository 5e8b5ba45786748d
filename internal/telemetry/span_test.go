package telemetry

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSpanContextRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID()}
	if !sc.Valid() {
		t.Fatal("fresh span context not valid")
	}
	s := sc.String()
	if len(s) != 49 || s[32] != '-' {
		t.Fatalf("wire form %q has wrong shape", s)
	}
	got, err := ParseSpanContext(s)
	if err != nil {
		t.Fatalf("ParseSpanContext(%q): %v", s, err)
	}
	if got != sc {
		t.Fatalf("round trip: got %v, want %v", got, sc)
	}
}

func TestParseSpanContextRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"abc",
		strings.Repeat("0", 49), // no separator
		strings.Repeat("g", 32) + "-" + strings.Repeat("a", 16), // bad hex trace
		strings.Repeat("a", 32) + "-" + strings.Repeat("z", 16), // bad hex span
		strings.Repeat("0", 32) + "-" + strings.Repeat("0", 16), // zero IDs
		strings.Repeat("a", 32) + "-" + strings.Repeat("a", 17), // too long
		strings.Repeat("a", 31) + "-" + strings.Repeat("a", 16), // too short
	}
	for _, s := range bad {
		if sc, err := ParseSpanContext(s); err == nil {
			t.Errorf("ParseSpanContext(%q) = %v, want error", s, sc)
		}
	}
}

func TestStartSpanDisabledIsNil(t *testing.T) {
	ctx := context.Background()
	got, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("StartSpan without collector returned a live span")
	}
	if got != ctx {
		t.Fatal("StartSpan without collector derived a new context")
	}
	// Every method must be a no-op on the nil span.
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 42)
	sp.SetError(errors.New("boom"))
	if sp.Name() != "" || sp.Context().Valid() {
		t.Error("nil span leaked identity")
	}
	sp.End()
	sp.End() // idempotent too
}

func TestStartSpanDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, "proxy.push")
		sp.SetAttr("page", "p1")
		sp.SetAttrInt("version", 3)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled StartSpan allocates %.1f times per op, want 0", allocs)
	}
}

func TestSpanTreeNestingAndRetention(t *testing.T) {
	c := NewSpanCollector(CollectorOptions{})
	ctx := WithSpanCollector(context.Background(), c)

	ctx, root := StartSpan(ctx, "broker.publish")
	if root == nil {
		t.Fatal("StartSpan with collector returned nil")
	}
	root.SetAttr("page", "p1")
	cctx, child := StartSpan(ctx, "broker.match")
	child.SetAttrInt("matched", 2)
	_, grand := StartSpan(cctx, "broker.push")
	grand.End()
	child.End()
	tid := root.Context().TraceID
	root.End()

	td, ok := c.Trace(tid)
	if !ok {
		t.Fatalf("trace %s not retained", tid)
	}
	if len(td.Spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(td.Spans))
	}
	if td.Root != "broker.publish" {
		t.Errorf("root = %q, want broker.publish", td.Root)
	}
	byName := map[string]SpanData{}
	for _, s := range td.Spans {
		if s.TraceID != tid {
			t.Errorf("span %s carries trace %s, want %s", s.Name, s.TraceID, tid)
		}
		byName[s.Name] = s
	}
	if byName["broker.match"].ParentID != byName["broker.publish"].SpanID {
		t.Error("broker.match is not a child of broker.publish")
	}
	if byName["broker.push"].ParentID != byName["broker.match"].SpanID {
		t.Error("broker.push is not a child of broker.match")
	}

	var sb strings.Builder
	if err := td.WriteTree(&sb); err != nil {
		t.Fatal(err)
	}
	tree := sb.String()
	for _, want := range []string{"broker.publish", "  broker.match", "    broker.push", "page=p1", "matched=2"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}

	stats := c.Stats()
	if stats.SpansStarted != 3 || stats.SpansCompleted != 3 || stats.TracesCompleted != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.ActiveTraces != 0 {
		t.Errorf("trace still active after all spans ended: %+v", stats)
	}
}

func TestRemoteParentContinuesTrace(t *testing.T) {
	// Process A starts a trace; its span context crosses the wire as a
	// string; process B (a different collector) parents under it.
	a := NewSpanCollector(CollectorOptions{})
	actx, asp := StartSpan(WithSpanCollector(context.Background(), a), "transport.client.publish")
	wire := asp.Context().String()
	_ = actx

	b := NewSpanCollector(CollectorOptions{})
	remote, err := ParseSpanContext(wire)
	if err != nil {
		t.Fatal(err)
	}
	bctx := WithRemoteSpanContext(WithSpanCollector(context.Background(), b), remote)
	_, bsp := StartSpan(bctx, "transport.server.publish")
	if bsp.Context().TraceID != asp.Context().TraceID {
		t.Fatalf("remote child trace %s != parent trace %s",
			bsp.Context().TraceID, asp.Context().TraceID)
	}
	tid := bsp.Context().TraceID
	bsp.End()
	asp.End()

	td, ok := b.Trace(tid)
	if !ok {
		t.Fatal("remote-parented trace not retained on B")
	}
	if td.Spans[0].ParentID != asp.Context().SpanID {
		t.Errorf("server span parent = %s, want client span %s",
			td.Spans[0].ParentID, asp.Context().SpanID)
	}
	// Root resolution: the parent is not local to B, so the server span
	// is B's root.
	if td.Root != "transport.server.publish" {
		t.Errorf("root = %q", td.Root)
	}
}

func TestSpanContextPropagatesWithoutCollector(t *testing.T) {
	// Even with no local collector, a remote span context in ctx must be
	// readable so the transport can forward the trace field.
	sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID()}
	ctx := WithRemoteSpanContext(context.Background(), sc)
	if got := SpanContextFromContext(ctx); got != sc {
		t.Fatalf("SpanContextFromContext = %v, want %v", got, sc)
	}
	if _, sp := StartSpan(ctx, "x"); sp != nil {
		t.Fatal("StartSpan produced a span with no collector")
	}
}

func TestCollectorSpanBoundTruncates(t *testing.T) {
	c := NewSpanCollector(CollectorOptions{MaxSpansPerTrace: 4})
	ctx := WithSpanCollector(context.Background(), c)
	ctx, root := StartSpan(ctx, "root")
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("child-%d", i))
		sp.End()
	}
	tid := root.Context().TraceID
	root.End()
	td, ok := c.Trace(tid)
	if !ok {
		t.Fatal("bounded trace not retained")
	}
	if len(td.Spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(td.Spans))
	}
	if !td.Truncated {
		t.Error("trace not marked truncated")
	}
	if c.Stats().SpansDropped == 0 {
		t.Error("no spans counted dropped")
	}
}

func TestCollectorActiveTraceBoundEvicts(t *testing.T) {
	c := NewSpanCollector(CollectorOptions{MaxActiveTraces: 2})
	ctx := WithSpanCollector(context.Background(), c)
	var spans []*Span
	for i := 0; i < 5; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("op-%d", i)) // 5 distinct traces
		spans = append(spans, sp)
	}
	stats := c.Stats()
	if stats.ActiveTraces > 2 {
		t.Fatalf("active traces %d exceeds bound 2", stats.ActiveTraces)
	}
	if stats.TracesEvicted != 3 {
		t.Errorf("evicted %d traces, want 3", stats.TracesEvicted)
	}
	for _, sp := range spans {
		sp.End() // ends for evicted traces must not panic or resurrect
	}
	if got := c.Stats().ActiveTraces; got != 0 {
		t.Errorf("active traces after all ends = %d", got)
	}
}

func TestCollectorRecentRingAndErrored(t *testing.T) {
	c := NewSpanCollector(CollectorOptions{KeepRecent: 3, KeepSlowest: 2, KeepErrors: 2})
	ctx := WithSpanCollector(context.Background(), c)
	for i := 0; i < 6; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("op-%d", i))
		if i == 5 {
			sp.SetError(errors.New("synthetic failure"))
		}
		sp.End()
	}
	traces := c.Traces()
	// recent(3) + slowest(2) + errored(1), deduplicated — never more than
	// the sum of the bounds.
	if len(traces) == 0 || len(traces) > 6 {
		t.Fatalf("retained %d traces", len(traces))
	}
	var sawErr bool
	for _, td := range traces {
		if td.Err {
			sawErr = true
			if td.Root != "op-5" {
				t.Errorf("errored trace root = %q, want op-5", td.Root)
			}
		}
	}
	if !sawErr {
		t.Error("errored trace not retained")
	}
	if _, ok := c.Trace(TraceID{1}); ok {
		t.Error("lookup of unknown trace succeeded")
	}
}

func TestCollectorSlowestRetention(t *testing.T) {
	c := NewSpanCollector(CollectorOptions{KeepRecent: 1, KeepSlowest: 2})
	// Hand the collector synthetic spans with controlled durations so
	// the slowest ring is deterministic.
	base := time.Now()
	for i, d := range []time.Duration{5, 50, 10, 40, 30} {
		tid := TraceID{byte(i + 1)}
		c.spanStarted(tid)
		c.spanEnded(SpanData{
			TraceID: tid, SpanID: SpanID{1}, Name: fmt.Sprintf("op-%d", i),
			Start: base, Duration: d * time.Millisecond,
		})
	}
	var durations []time.Duration
	for _, td := range c.Traces() {
		durations = append(durations, td.Duration)
	}
	want := map[time.Duration]bool{50 * time.Millisecond: false, 40 * time.Millisecond: false}
	for _, d := range durations {
		if _, ok := want[d]; ok {
			want[d] = true
		}
	}
	for d, seen := range want {
		if !seen {
			t.Errorf("slowest retention lost the %v trace; retained %v", d, durations)
		}
	}
}

func TestNilCollectorIsUsable(t *testing.T) {
	var c *SpanCollector
	c.spanStarted(TraceID{1})
	c.spanEnded(SpanData{})
	if got := c.Stats(); got != (CollectorStats{}) {
		t.Errorf("nil collector stats = %+v", got)
	}
	if c.Traces() != nil {
		t.Error("nil collector returned traces")
	}
	if _, ok := c.Trace(TraceID{1}); ok {
		t.Error("nil collector found a trace")
	}
	// WithSpanCollector(nil) must keep tracing disabled.
	ctx := WithSpanCollector(context.Background(), nil)
	if _, sp := StartSpan(ctx, "x"); sp != nil {
		t.Fatal("nil collector produced a live span")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	c := NewSpanCollector(CollectorOptions{})
	_, sp := StartSpan(WithSpanCollector(context.Background(), c), "once")
	sp.End()
	sp.End()
	sp.End()
	stats := c.Stats()
	if stats.SpansCompleted != 1 {
		t.Fatalf("completed %d spans, want 1", stats.SpansCompleted)
	}
	if stats.TracesCompleted != 1 {
		t.Fatalf("completed %d traces, want 1", stats.TracesCompleted)
	}
}
