package telemetry

// Labeled metric vectors. A vector ("vec") is a family of metrics that
// share a name and differ in label values: proxy.fetch_errors{proxy="3"},
// broker.publishes_by_topic{topic="news"},
// sim.strategy.hits{strategy="GD*"}. Each distinct label-value
// combination is one ordinary Counter/Gauge/Histogram registered in the
// owning Registry under its rendered series key, so snapshots, the JSON
// endpoint, the fleet merger and WriteSummary all see labeled series
// with zero extra plumbing.
//
// Cardinality is bounded per vec: once MaxSeries distinct combinations
// exist, further combinations collapse into a single overflow series
// whose every label value is LabelOverflow, and the registry-level
// telemetry.labels.overflow counter ticks once per collapsed
// observation. The bound keeps a hostile or high-entropy label (topic
// names, page IDs) from growing the registry without limit — the
// label/cardinality budget is part of the metric's contract, not a
// runtime surprise.
//
// Series keys use the Prometheus/OpenMetrics exposition syntax
// (name{label="value",...}, values escaped) with labels in the order
// the vec declared them, so the text exporter can emit a stored key
// verbatim and ParseSeries can split any key back into name + labels.

import (
	"strings"
	"sync"
)

// DefaultMaxSeries is the per-vec cardinality budget used when a vec is
// created without an explicit bound.
const DefaultMaxSeries = 256

// LabelOverflow is the label value carried by a vec's overflow series —
// the series that absorbs every label combination past the cardinality
// budget.
const LabelOverflow = "~overflow~"

// overflowCounterName counts observations that landed in any vec's
// overflow series because the cardinality budget was exhausted.
const overflowCounterName = "telemetry.labels.overflow"

// vecCore is the label bookkeeping shared by the three vec kinds: the
// declared label names, the bounded series map keyed by the raw joined
// label values, and the rendered series key for each new combination.
type vecCore struct {
	name   string
	labels []string
	max    int

	mu     sync.RWMutex
	series map[string]string // joined raw values -> rendered series key
}

func newVecCore(name string, labels []string, max int) *vecCore {
	if len(labels) == 0 {
		panic("telemetry: a vec needs at least one label")
	}
	if max <= 0 {
		max = DefaultMaxSeries
	}
	return &vecCore{
		name:   name,
		labels: labels,
		max:    max,
		series: make(map[string]string),
	}
}

// joinValues builds the internal lookup key for a label-value
// combination. \xff cannot appear in a UTF-8 label value's first byte
// position legitimately enough to matter here; collisions would only
// merge two series, never corrupt memory.
func joinValues(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	return strings.Join(values, "\xff")
}

// resolve maps a label-value combination to its rendered series key,
// creating it (or the overflow series) under the cardinality budget.
// The second return is true when the combination overflowed.
func (v *vecCore) resolve(values []string) (string, bool) {
	if len(values) != len(v.labels) {
		panic("telemetry: vec " + v.name + " got wrong number of label values")
	}
	raw := joinValues(values)
	v.mu.RLock()
	key, ok := v.series[raw]
	v.mu.RUnlock()
	if ok {
		return key, false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if key, ok = v.series[raw]; ok {
		return key, false
	}
	if len(v.series) >= v.max {
		// Budget exhausted: collapse into the overflow series. It is
		// not stored in v.series, so the budget stays exactly max real
		// combinations plus one overflow.
		over := make([]string, len(v.labels))
		for i := range over {
			over[i] = LabelOverflow
		}
		return RenderSeries(v.name, v.labels, over), true
	}
	key = RenderSeries(v.name, v.labels, values)
	v.series[raw] = key
	return key, false
}

// RenderSeries builds the canonical series key
// name{l1="v1",l2="v2",...} with label values escaped per the
// Prometheus text format (backslash, double quote, newline).
func RenderSeries(name string, labels, values []string) string {
	var b strings.Builder
	b.Grow(len(name) + 16*len(labels))
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		escapeLabelValue(&b, values[i])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
}

// ParseSeries splits a series key back into its metric name and label
// pairs. A key without labels returns the name and a nil map. Labels
// are returned in a map; ordered access is not needed by any reader.
// Malformed keys return the whole key as the name — the function is
// total, matching how keys are only ever produced by RenderSeries.
func ParseSeries(key string) (name string, labels map[string]string) {
	i := strings.IndexByte(key, '{')
	if i < 0 || !strings.HasSuffix(key, "}") {
		return key, nil
	}
	name = key[:i]
	body := key[i+1 : len(key)-1]
	labels = make(map[string]string)
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return key, nil
		}
		label := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		j := 0
		for ; j < len(rest); j++ {
			c := rest[j]
			if c == '\\' && j+1 < len(rest) {
				j++
				switch rest[j] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[j])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if j >= len(rest) {
			return key, nil
		}
		labels[label] = val.String()
		body = rest[j+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return name, labels
}

// CounterVec is a family of counters sharing one name, differing in
// label values. Obtain one from Registry.CounterVec; resolve series
// with With. Nil-safe like the scalar metrics: a nil vec hands out
// detached counters.
type CounterVec struct {
	reg  *Registry
	core *vecCore
}

// With returns the counter for the given label values (one per declared
// label, in declaration order), creating the series on first use.
// Past the cardinality budget it returns the vec's overflow counter.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return &Counter{}
	}
	key, overflowed := v.core.resolve(values)
	if overflowed {
		v.reg.Counter(overflowCounterName).Inc()
	}
	return v.reg.Counter(key)
}

// GaugeVec is a family of gauges; see CounterVec.
type GaugeVec struct {
	reg  *Registry
	core *vecCore
}

// With returns the gauge for the given label values; see
// CounterVec.With.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return &Gauge{}
	}
	key, overflowed := v.core.resolve(values)
	if overflowed {
		v.reg.Counter(overflowCounterName).Inc()
	}
	return v.reg.Gauge(key)
}

// HistogramVec is a family of histograms sharing one name and bucket
// layout; see CounterVec.
type HistogramVec struct {
	reg    *Registry
	core   *vecCore
	bounds []int64
}

// With returns the histogram for the given label values; see
// CounterVec.With.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return NewHistogram(LatencyBuckets())
	}
	key, overflowed := v.core.resolve(values)
	if overflowed {
		v.reg.Counter(overflowCounterName).Inc()
	}
	return v.reg.Histogram(key, v.bounds)
}

// vecSpec fixes a vec's identity for re-registration: same name must
// mean same labels, so independent components can share a vec by name
// exactly like they share scalar counters.
type vecSpec struct {
	labels []string
	max    int
	vec    any
}

// CounterVec returns the counter vec with the given name and labels,
// creating it with the DefaultMaxSeries cardinality budget if needed.
// Re-registering an existing name returns the existing vec (labels and
// budget of the first registration win). Safe on a nil registry.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	return r.CounterVecBounded(name, 0, labels...)
}

// CounterVecBounded is CounterVec with an explicit per-vec series
// budget (0 means DefaultMaxSeries).
func (r *Registry) CounterVecBounded(name string, maxSeries int, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	spec := r.vec(name, labels, maxSeries, func(core *vecCore) any {
		return &CounterVec{reg: r, core: core}
	})
	v, _ := spec.(*CounterVec)
	return v
}

// GaugeVec returns the gauge vec with the given name and labels; see
// CounterVec.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	spec := r.vec(name, labels, 0, func(core *vecCore) any {
		return &GaugeVec{reg: r, core: core}
	})
	v, _ := spec.(*GaugeVec)
	return v
}

// HistogramVec returns the histogram vec with the given name, bucket
// bounds and labels; see CounterVec. Bounds of the first registration
// win.
func (r *Registry) HistogramVec(name string, bounds []int64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	spec := r.vec(name, labels, 0, func(core *vecCore) any {
		return &HistogramVec{reg: r, core: core, bounds: bounds}
	})
	v, _ := spec.(*HistogramVec)
	return v
}

// vec looks up or creates the vec registered under name.
func (r *Registry) vec(name string, labels []string, maxSeries int, build func(*vecCore) any) any {
	r.mu.RLock()
	spec, ok := r.vecs[name]
	r.mu.RUnlock()
	if ok {
		return spec.vec
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if spec, ok := r.vecs[name]; ok {
		return spec.vec
	}
	core := newVecCore(name, append([]string(nil), labels...), maxSeries)
	v := build(core)
	r.vecs[name] = &vecSpec{labels: core.labels, max: core.max, vec: v}
	return v
}
