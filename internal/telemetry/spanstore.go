package telemetry

// The SpanCollector: bounded in-memory storage for span trees. Traces
// accumulate while any of their spans is open; when the last open span
// ends the trace is finalised and pushed into three retention rings —
// the most recent traces, the slowest N (by end-to-end duration, the
// tail-latency evidence), and traces containing an errored span. All
// bounds are hard: a collector never grows past its configured limits,
// whatever the traffic does.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// SpanData is one completed span as stored and served by the collector.
type SpanData struct {
	TraceID  TraceID       `json:"traceId"`
	SpanID   SpanID        `json:"spanId"`
	ParentID SpanID        `json:"parentId,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// TraceData is one finalised trace: its spans in start order plus the
// derived summary fields the admin views list.
type TraceData struct {
	TraceID TraceID `json:"traceId"`
	// Root is the name of the trace's root span (the earliest span whose
	// parent is unknown locally).
	Root  string    `json:"root"`
	Start time.Time `json:"start"`
	// Duration spans the earliest start to the latest end across all
	// spans.
	Duration time.Duration `json:"durationNs"`
	Spans    []SpanData    `json:"spans"`
	// Err reports whether any span recorded an error.
	Err bool `json:"err"`
	// Truncated reports whether the per-trace span bound dropped spans.
	Truncated bool `json:"truncated,omitempty"`
}

// HasAttr reports whether the span carries the attribute key=value.
func (sd SpanData) HasAttr(key, value string) bool {
	for _, a := range sd.Attrs {
		if a.Key == key && a.Value == value {
			return true
		}
	}
	return false
}

// HasAttr reports whether any span of the trace carries the attribute
// key=value.
func (td *TraceData) HasAttr(key, value string) bool {
	for _, sd := range td.Spans {
		if sd.HasAttr(key, value) {
			return true
		}
	}
	return false
}

// CollectorStats counts the collector's traffic and shedding.
type CollectorStats struct {
	SpansStarted   uint64 `json:"spansStarted"`
	SpansCompleted uint64 `json:"spansCompleted"`
	// SpansDropped counts spans shed by the per-trace bound or arriving
	// for an already-finalised trace.
	SpansDropped uint64 `json:"spansDropped"`
	// TracesCompleted counts finalised traces.
	TracesCompleted uint64 `json:"tracesCompleted"`
	// TracesEvicted counts active traces shed because the active-trace
	// bound was hit.
	TracesEvicted uint64 `json:"tracesEvicted"`
	ActiveTraces  int    `json:"activeTraces"`
}

// CollectorOptions bounds a SpanCollector. Zero fields take defaults.
type CollectorOptions struct {
	// MaxActiveTraces bounds traces with open spans (default 256).
	MaxActiveTraces int
	// MaxSpansPerTrace bounds spans retained per trace (default 512).
	MaxSpansPerTrace int
	// KeepRecent bounds the most-recent retention ring (default 64).
	KeepRecent int
	// KeepSlowest bounds the slowest-trace retention (default 16).
	KeepSlowest int
	// KeepErrors bounds the errored-trace retention ring (default 32).
	KeepErrors int
}

func (o CollectorOptions) withDefaults() CollectorOptions {
	if o.MaxActiveTraces <= 0 {
		o.MaxActiveTraces = 256
	}
	if o.MaxSpansPerTrace <= 0 {
		o.MaxSpansPerTrace = 512
	}
	if o.KeepRecent <= 0 {
		o.KeepRecent = 64
	}
	if o.KeepSlowest <= 0 {
		o.KeepSlowest = 16
	}
	if o.KeepErrors <= 0 {
		o.KeepErrors = 32
	}
	return o
}

// activeTrace is a trace still accumulating spans.
type activeTrace struct {
	spans     []SpanData
	open      int
	truncated bool
}

// SpanCollector receives completed spans and retains bounded trace
// trees. All methods are safe for concurrent use; a nil collector
// ignores everything.
type SpanCollector struct {
	opts CollectorOptions

	mu     sync.Mutex
	active map[TraceID]*activeTrace
	// order lists active trace IDs oldest-first for bounded eviction.
	order   []TraceID
	recent  []*TraceData // ring, newest last
	slowest []*TraceData // ascending by duration, len <= KeepSlowest
	errored []*TraceData // ring, newest last
	stats   CollectorStats
}

// NewSpanCollector returns a collector with the given bounds (zero
// fields take documented defaults).
func NewSpanCollector(opts CollectorOptions) *SpanCollector {
	return &SpanCollector{
		opts:   opts.withDefaults(),
		active: make(map[TraceID]*activeTrace),
	}
}

// spanStarted registers an open span so the trace finalises only when
// every started span has ended.
func (c *SpanCollector) spanStarted(tid TraceID) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.SpansStarted++
	t := c.active[tid]
	if t == nil {
		if len(c.active) >= c.opts.MaxActiveTraces {
			c.evictOldestLocked()
		}
		t = &activeTrace{}
		c.active[tid] = t
		c.order = append(c.order, tid)
	}
	t.open++
	c.mu.Unlock()
}

// evictOldestLocked finalises the oldest active trace as-is to make
// room. Caller holds c.mu.
func (c *SpanCollector) evictOldestLocked() {
	for len(c.order) > 0 {
		tid := c.order[0]
		c.order = c.order[1:]
		t, ok := c.active[tid]
		if !ok {
			continue
		}
		delete(c.active, tid)
		c.stats.TracesEvicted++
		if len(t.spans) > 0 {
			c.retainLocked(tid, t)
		}
		return
	}
}

// spanEnded records a completed span and finalises its trace when no
// spans remain open.
func (c *SpanCollector) spanEnded(data SpanData) {
	if c == nil {
		return
	}
	c.mu.Lock()
	t := c.active[data.TraceID]
	if t == nil {
		// The trace was finalised or evicted while this span ran.
		c.stats.SpansDropped++
		c.mu.Unlock()
		return
	}
	if len(t.spans) < c.opts.MaxSpansPerTrace {
		t.spans = append(t.spans, data)
		c.stats.SpansCompleted++
	} else {
		t.truncated = true
		c.stats.SpansDropped++
	}
	t.open--
	if t.open <= 0 {
		delete(c.active, data.TraceID)
		c.removeOrderLocked(data.TraceID)
		c.retainLocked(data.TraceID, t)
		c.stats.TracesCompleted++
	}
	c.mu.Unlock()
}

// removeOrderLocked drops tid from the active-order queue.
func (c *SpanCollector) removeOrderLocked(tid TraceID) {
	for i, id := range c.order {
		if id == tid {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// retainLocked finalises a trace into the retention rings. Caller holds
// c.mu.
func (c *SpanCollector) retainLocked(tid TraceID, t *activeTrace) {
	td := buildTrace(tid, t.spans)
	td.Truncated = t.truncated
	c.recent = append(c.recent, td)
	if len(c.recent) > c.opts.KeepRecent {
		c.recent = c.recent[1:]
	}
	if td.Err {
		c.errored = append(c.errored, td)
		if len(c.errored) > c.opts.KeepErrors {
			c.errored = c.errored[1:]
		}
	}
	// slowest stays ascending by duration; replace the current minimum
	// when full.
	if len(c.slowest) < c.opts.KeepSlowest {
		c.slowest = append(c.slowest, td)
		sort.Slice(c.slowest, func(i, j int) bool { return c.slowest[i].Duration < c.slowest[j].Duration })
	} else if len(c.slowest) > 0 && td.Duration > c.slowest[0].Duration {
		c.slowest[0] = td
		sort.Slice(c.slowest, func(i, j int) bool { return c.slowest[i].Duration < c.slowest[j].Duration })
	}
}

// buildTrace derives the trace summary from its spans.
func buildTrace(tid TraceID, spans []SpanData) *TraceData {
	td := &TraceData{TraceID: tid, Spans: spans}
	if len(spans) == 0 {
		return td
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	local := make(map[SpanID]bool, len(spans))
	for _, s := range spans {
		if s.Error != "" {
			td.Err = true
		}
		local[s.SpanID] = true
	}
	start := spans[0].Start
	end := start
	for _, s := range spans {
		if e := s.Start.Add(s.Duration); e.After(end) {
			end = e
		}
	}
	td.Start = start
	td.Duration = end.Sub(start)
	// The root is the earliest span whose parent is not a local span
	// (either a true root or the continuation of a remote parent).
	for _, s := range spans {
		if s.ParentID.IsZero() || !local[s.ParentID] {
			td.Root = s.Name
			break
		}
	}
	if td.Root == "" {
		td.Root = spans[0].Name
	}
	return td
}

// Stats returns a snapshot of the collector's counters.
func (c *SpanCollector) Stats() CollectorStats {
	if c == nil {
		return CollectorStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.ActiveTraces = len(c.active)
	return s
}

// Traces lists the retained traces — recent, slowest and errored,
// deduplicated — newest first.
func (c *SpanCollector) Traces() []*TraceData {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[*TraceData]bool)
	var out []*TraceData
	add := func(list []*TraceData) {
		for _, td := range list {
			if !seen[td] {
				seen[td] = true
				out = append(out, td)
			}
		}
	}
	add(c.recent)
	add(c.slowest)
	add(c.errored)
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// Trace returns the retained trace with the given ID. Multiple
// finalised segments of the same trace (a long-lived trace whose spans
// arrived in bursts) are merged into one tree. ok is false when the
// trace is not retained.
func (c *SpanCollector) Trace(tid TraceID) (*TraceData, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var spans []SpanData
	truncated := false
	seen := make(map[*TraceData]bool)
	collect := func(list []*TraceData) {
		for _, td := range list {
			if td.TraceID == tid && !seen[td] {
				seen[td] = true
				spans = append(spans, td.Spans...)
				truncated = truncated || td.Truncated
			}
		}
	}
	collect(c.recent)
	collect(c.slowest)
	collect(c.errored)
	// Include the still-active segment so an in-flight trace can be
	// inspected live.
	if t, ok := c.active[tid]; ok {
		spans = append(spans, t.spans...)
		truncated = truncated || t.truncated
	}
	if len(spans) == 0 {
		return nil, false
	}
	td := buildTrace(tid, spans)
	td.Truncated = truncated
	return td, true
}

// WriteTree renders the trace as an indented text tree with per-stage
// durations, children sorted by start time.
func (td *TraceData) WriteTree(w io.Writer) error {
	p := func(format string, args ...interface{}) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("trace %s  root=%s  spans=%d  duration=%s\n",
		td.TraceID, td.Root, len(td.Spans), td.Duration); err != nil {
		return err
	}
	local := make(map[SpanID]bool, len(td.Spans))
	children := make(map[SpanID][]SpanData)
	for _, s := range td.Spans {
		local[s.SpanID] = true
	}
	var roots []SpanData
	for _, s := range td.Spans {
		if s.ParentID.IsZero() || !local[s.ParentID] {
			roots = append(roots, s)
		} else {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	var walk func(s SpanData, depth int) error
	walk = func(s SpanData, depth int) error {
		line := fmt.Sprintf("%*s%s  %s", 2*depth, "", s.Name, s.Duration)
		for _, a := range s.Attrs {
			line += fmt.Sprintf("  %s=%s", a.Key, a.Value)
		}
		if s.Error != "" {
			line += "  ERROR=" + s.Error
		}
		if err := p("%s\n", line); err != nil {
			return err
		}
		kids := children[s.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		for _, k := range kids {
			if err := walk(k, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })
	for _, r := range roots {
		if err := walk(r, 1); err != nil {
			return err
		}
	}
	return nil
}
