package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram over non-negative int64 samples
// (latencies in nanoseconds, sizes in bytes). Buckets are defined by
// ascending upper bounds; a sample lands in the first bucket whose
// bound is >= the sample (inclusive upper bounds). One extra overflow
// bucket catches samples above the largest bound. Observations are a
// single binary-search plus three atomic adds; snapshots read the
// atomics without stopping writers.
type Histogram struct {
	bounds []int64        // ascending upper bounds, immutable after New
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Int64

	// exemplars holds the most recent traced sample per bucket (nil
	// entries until a traced observation lands there). Written only by
	// ObserveExemplar, so untraced hot paths never touch it.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one histogram bucket to a concrete traced sample: the
// observed value and the ID of the distributed trace that produced it,
// so a latency bucket on /metrics resolves to a retained span tree on
// /trace/{id}.
type Exemplar struct {
	Bucket  int       `json:"bucket"` // index into Counts
	Value   int64     `json:"value"`
	TraceID TraceID   `json:"traceId"`
	Time    time.Time `json:"time"`
}

// NewHistogram builds a histogram with the given ascending upper bounds.
// Panics on empty or non-ascending bounds — bucket layouts are static
// configuration, so a bad layout is a programming error.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// bucketIndex returns the index of the first bound >= v (binary
// search); len(bounds) is the overflow bucket.
func (h *Histogram) bucketIndex(v int64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records a sample. Negative samples are clamped to 0.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n samples of the same value v at the cost of one.
// Negative samples are clamped to 0; n <= 0 records nothing.
func (h *Histogram) ObserveN(v, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	lo := h.bucketIndex(v)
	h.counts[lo].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
}

// ObserveExemplar records a sample and, when tid is non-zero, stores it
// as the bucket's exemplar so the OpenMetrics exposition can link the
// bucket to the retained trace. With a zero tid it is exactly Observe.
func (h *Histogram) ObserveExemplar(v int64, tid TraceID) {
	if v < 0 {
		v = 0
	}
	lo := h.bucketIndex(v)
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if !tid.IsZero() {
		h.exemplars[lo].Store(&Exemplar{Bucket: lo, Value: v, TraceID: tid, Time: time.Now()})
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Bounds []int64 `json:"bounds"` // ascending upper bounds; last bucket is overflow
	Counts []int64 `json:"counts"` // len(Bounds)+1
	// Exemplars holds at most one traced sample per bucket (only
	// buckets that saw a traced observation appear).
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot copies the histogram state. Writers are not stopped, so the
// per-bucket counts may be slightly newer than Count/Sum.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			s.Exemplars = append(s.Exemplars, *e)
		}
	}
	return s
}

// Mean returns the mean sample, or NaN when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1):
// the upper bound of the bucket containing that rank. Samples in the
// overflow bucket report twice the largest bound. Returns 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return 2 * s.Bounds[len(s.Bounds)-1]
		}
	}
	return 2 * s.Bounds[len(s.Bounds)-1]
}

// ExpBuckets returns n ascending bounds starting at start, each
// subsequent bound multiplied by factor (log-scale buckets). start must
// be positive, factor > 1 and n >= 1; panics otherwise, as bucket
// layouts are static configuration.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	bounds := make([]int64, n)
	v := float64(start)
	prev := int64(0)
	for i := 0; i < n; i++ {
		b := int64(math.Round(v))
		if b <= prev { // guard rounding collisions at small scales
			b = prev + 1
		}
		bounds[i] = b
		prev = b
		v *= factor
	}
	return bounds
}

// LatencyBuckets returns the standard log-scale latency layout used
// across the system: 1µs to ~17s in ns, factor 4 (13 buckets).
func LatencyBuckets() []int64 { return ExpBuckets(1_000, 4, 13) }

// SizeBuckets returns the standard log-scale size layout: 64 B to
// ~1 GiB, factor 4 (13 buckets).
func SizeBuckets() []int64 { return ExpBuckets(64, 4, 13) }

// CountBuckets returns a log-scale layout for small cardinalities
// (fan-out counts and the like): 1 to ~4096, factor 2 (13 buckets).
func CountBuckets() []int64 { return ExpBuckets(1, 2, 13) }
