package telemetry

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Error("re-registering a counter should return the same instance")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
	if r.Gauge("g") != g {
		t.Error("re-registering a gauge should return the same instance")
	}
}

func TestNilRegistryIsUsable(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", CountBuckets()).Observe(3)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
	if r.CounterNames() != nil {
		t.Error("nil registry should have no counter names")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h_ns", LatencyBuckets()).Observe(int64(j))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h_ns", nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestSnapshotAndSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("c1").Add(3)
	r.Gauge("g1").Set(9)
	h := r.Histogram("lat_ns", []int64{10, 100, 1000})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	snap := r.Snapshot()
	if snap.Counters["c1"] != 3 || snap.Gauges["g1"] != 9 {
		t.Errorf("snapshot values wrong: %+v", snap)
	}
	hs := snap.Histograms["lat_ns"]
	if hs.Count != 3 || hs.Sum != 5055 {
		t.Errorf("histogram snapshot count/sum = %d/%d", hs.Count, hs.Sum)
	}
	var sb strings.Builder
	if err := snap.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"c1", "g1", "lat_ns", "(gauge)"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sb.String())
		}
	}
	names := r.CounterNames()
	if len(names) != 1 || names[0] != "c1" {
		t.Errorf("CounterNames = %v", names)
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound bucket
// semantics: a sample exactly on a bound lands in that bound's bucket,
// one above lands in the next, and samples above the largest bound land
// in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []int64{10, 100, 1000}
	cases := []struct {
		sample int64
		bucket int
	}{
		{-5, 0}, // clamped to 0
		{0, 0},
		{9, 0},
		{10, 0}, // exactly on the first bound: inclusive
		{11, 1},
		{100, 1},
		{101, 2},
		{1000, 2},
		{1001, 3}, // overflow
		{1 << 40, 3},
	}
	for _, tc := range cases {
		h := NewHistogram(bounds)
		h.Observe(tc.sample)
		s := h.Snapshot()
		for i, c := range s.Counts {
			want := int64(0)
			if i == tc.bucket {
				want = 1
			}
			if c != want {
				t.Errorf("sample %d: bucket %d count = %d, want %d", tc.sample, i, c, want)
			}
		}
	}
}

// ObserveN(v, n) must leave the histogram exactly as n Observe(v) calls.
func TestHistogramObserveNMatchesRepeatedObserve(t *testing.T) {
	bounds := []int64{10, 100, 1000}
	batched, single := NewHistogram(bounds), NewHistogram(bounds)
	for _, s := range []struct{ v, n int64 }{{50, 3}, {-1, 2}, {5000, 1}, {7, 0}} {
		batched.ObserveN(s.v, s.n)
		for i := int64(0); i < s.n; i++ {
			single.Observe(s.v)
		}
	}
	if got, want := batched.Snapshot(), single.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ObserveN snapshot %+v, want %+v", got, want)
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	var empty HistogramSnapshot = h.Snapshot()
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	for i := 0; i < 90; i++ {
		h.Observe(5) // bucket 0
	}
	for i := 0; i < 9; i++ {
		h.Observe(50) // bucket 1
	}
	h.Observe(5000) // overflow
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %d, want 10", got)
	}
	if got := s.Quantile(0.95); got != 100 {
		t.Errorf("p95 = %d, want 100", got)
	}
	if got := s.Quantile(1); got != 2000 {
		t.Errorf("p100 = %d, want 2000 (2x largest bound for overflow)", got)
	}
	mean := s.Mean()
	want := float64(90*5+9*50+5000) / 100
	if mean != want {
		t.Errorf("mean = %g, want %g", mean, want)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1000, 4, 5)
	want := []int64{1000, 4000, 16000, 64000, 256000}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, b[i], want[i])
		}
	}
	// Small starts with rounding collisions must stay strictly ascending.
	tiny := ExpBuckets(1, 1.1, 20)
	for i := 1; i < len(tiny); i++ {
		if tiny[i] <= tiny[i-1] {
			t.Fatalf("ExpBuckets not ascending at %d: %v", i, tiny)
		}
	}
	for _, layout := range [][]int64{LatencyBuckets(), SizeBuckets(), CountBuckets()} {
		if len(layout) != 13 {
			t.Errorf("standard layout has %d buckets, want 13", len(layout))
		}
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]int64{nil, {}, {5, 5}, {5, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) should panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}
