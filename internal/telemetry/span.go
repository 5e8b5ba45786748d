package telemetry

// Span-based distributed tracing. A Span measures one stage of the
// pipeline (transport send, broker match, journal append, push
// placement, proxy admit, ...) and carries trace/span/parent IDs so the
// stages of one logical operation — a page moving from Publish through
// matching, fan-out and a later cache hit — form a tree, even when the
// stages run in different processes connected by the wire protocol.
//
// The API is context-based: StartSpan(ctx, name) returns a child of the
// span already in ctx (or of a remote parent installed from the wire via
// WithRemoteSpanContext), collected by the SpanCollector installed with
// WithSpanCollector. When no collector is reachable from ctx, StartSpan
// is a no-op that allocates nothing and returns a nil *Span whose
// methods are all safe to call — instrumentation can stay wired
// unconditionally on hot paths.
//
// Wire propagation uses SpanContext.String / ParseSpanContext: a
// 32-hex-digit trace ID and a 16-hex-digit span ID joined by '-'. The
// transport carries it in an optional JSON field old peers simply
// ignore.

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	mrand "math/rand/v2"
	"strconv"
	"sync"
	"time"
)

// TraceID identifies one distributed trace (all spans of one logical
// operation, across processes).
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// MarshalText renders the ID as hex (JSON object keys and fields).
func (t TraceID) MarshalText() ([]byte, error) {
	dst := make([]byte, hex.EncodedLen(len(t)))
	hex.Encode(dst, t[:])
	return dst, nil
}

// UnmarshalText parses 32 hex digits.
func (t *TraceID) UnmarshalText(b []byte) error {
	if hex.DecodedLen(len(b)) != len(t) {
		return fmt.Errorf("telemetry: trace ID must be %d hex digits, got %d", 2*len(t), len(b))
	}
	_, err := hex.Decode(t[:], b)
	return err
}

// MarshalText renders the ID as hex.
func (s SpanID) MarshalText() ([]byte, error) {
	dst := make([]byte, hex.EncodedLen(len(s)))
	hex.Encode(dst, s[:])
	return dst, nil
}

// UnmarshalText parses 16 hex digits.
func (s *SpanID) UnmarshalText(b []byte) error {
	if hex.DecodedLen(len(b)) != len(s) {
		return fmt.Errorf("telemetry: span ID must be %d hex digits, got %d", 2*len(s), len(b))
	}
	_, err := hex.Decode(s[:], b)
	return err
}

// newTraceID returns a fresh random trace ID.
func newTraceID() TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], mrand.Uint64())
	binary.BigEndian.PutUint64(t[8:], mrand.Uint64())
	return t
}

// newSpanID returns a fresh random span ID.
func newSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], mrand.Uint64())
	return s
}

// SpanContext is the portable identity of a span: what crosses the wire
// so a peer can parent its spans under ours.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context identifies a real span.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// String encodes the context for the wire: "<32 hex>-<16 hex>".
func (sc SpanContext) String() string {
	return sc.TraceID.String() + "-" + sc.SpanID.String()
}

// ParseSpanContext decodes a wire trace-context field. It is the single
// entry point for untrusted trace bytes: any string yields a context or
// an error, never a panic.
func ParseSpanContext(s string) (SpanContext, error) {
	var sc SpanContext
	if len(s) != 49 || s[32] != '-' {
		return sc, fmt.Errorf("telemetry: bad span context %q", s)
	}
	if err := sc.TraceID.UnmarshalText([]byte(s[:32])); err != nil {
		return SpanContext{}, fmt.Errorf("telemetry: bad trace ID in %q: %w", s, err)
	}
	if err := sc.SpanID.UnmarshalText([]byte(s[33:])); err != nil {
		return SpanContext{}, fmt.Errorf("telemetry: bad span ID in %q: %w", s, err)
	}
	if !sc.Valid() {
		return SpanContext{}, fmt.Errorf("telemetry: zero span context %q", s)
	}
	return sc, nil
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Span is one live stage measurement. A nil *Span is the disabled form:
// every method is a no-op, so callers never need to branch.
type Span struct {
	collector *SpanCollector
	sc        SpanContext
	parent    SpanID
	name      string
	start     time.Time

	mu    sync.Mutex
	attrs []Attr
	errs  string
	ended bool
}

// Context keys. Distinct types so values cannot collide.
type (
	spanCtxKey      struct{}
	collectorCtxKey struct{}
	remoteCtxKey    struct{}
)

// WithSpanCollector installs the collector spans started under ctx
// report to. Instrumented code below this point produces real spans.
func WithSpanCollector(ctx context.Context, c *SpanCollector) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, collectorCtxKey{}, c)
}

// SpanCollectorFromContext returns the collector installed in ctx, or
// nil.
func SpanCollectorFromContext(ctx context.Context) *SpanCollector {
	c, _ := ctx.Value(collectorCtxKey{}).(*SpanCollector)
	return c
}

// WithRemoteSpanContext records a parent span that lives in another
// process (parsed off the wire). The next StartSpan under ctx becomes
// its child, continuing the distributed trace locally.
func WithRemoteSpanContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteCtxKey{}, sc)
}

// SpanFromContext returns the active span in ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// SpanContextFromContext returns the portable identity of the active
// span (local or remote) in ctx; the zero value when tracing is off.
func SpanContextFromContext(ctx context.Context) SpanContext {
	if s := SpanFromContext(ctx); s != nil {
		return s.sc
	}
	sc, _ := ctx.Value(remoteCtxKey{}).(SpanContext)
	return sc
}

// StartSpan starts a span named name as a child of the span in ctx (or
// of a remote parent installed with WithRemoteSpanContext; a fresh root
// otherwise) and returns a derived context carrying it. When no
// collector is reachable from ctx, it returns ctx unchanged and a nil
// span — no allocation, no work — so hot paths can call it
// unconditionally.
//
// The caller must call End on the returned span (nil-safe).
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parentSpan := SpanFromContext(ctx)
	var collector *SpanCollector
	var traceID TraceID
	var parentID SpanID
	if parentSpan != nil {
		collector = parentSpan.collector
		traceID = parentSpan.sc.TraceID
		parentID = parentSpan.sc.SpanID
	} else {
		collector = SpanCollectorFromContext(ctx)
		if collector == nil {
			return ctx, nil
		}
		if remote, ok := ctx.Value(remoteCtxKey{}).(SpanContext); ok && remote.Valid() {
			traceID = remote.TraceID
			parentID = remote.SpanID
		} else {
			traceID = newTraceID()
		}
	}
	s := &Span{
		collector: collector,
		sc:        SpanContext{TraceID: traceID, SpanID: newSpanID()},
		parent:    parentID,
		name:      name,
		start:     time.Now(),
		attrs:     attrs,
	}
	collector.spanStarted(traceID)
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// Context returns the span's portable identity; the zero value on a nil
// span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr annotates the span. No-op on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value. No-op on nil
// (the value is not formatted in that case, so disabled spans cost
// nothing).
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// SetError marks the span failed. No-op on nil or nil err.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	if s.errs == "" {
		s.errs = err.Error()
	}
	s.mu.Unlock()
}

// End completes the span and hands it to the collector. Idempotent and
// nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	data := SpanData{
		TraceID:  s.sc.TraceID,
		SpanID:   s.sc.SpanID,
		ParentID: s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: end.Sub(s.start),
		Attrs:    s.attrs,
		Error:    s.errs,
	}
	s.mu.Unlock()
	s.collector.spanEnded(data)
}
