package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

func TestCounterVecBasics(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("req.total", "strategy", "outcome")
	vec.With("GD*", "hit").Add(3)
	vec.With("GD*", "miss").Inc()
	vec.With("GD*", "hit").Inc()

	snap := r.Snapshot()
	if got := snap.Counters[`req.total{strategy="GD*",outcome="hit"}`]; got != 4 {
		t.Errorf("hit series = %d, want 4", got)
	}
	if got := snap.Counters[`req.total{strategy="GD*",outcome="miss"}`]; got != 1 {
		t.Errorf("miss series = %d, want 1", got)
	}
	if r.CounterVec("req.total", "strategy", "outcome") != vec {
		t.Error("re-registering a vec should return the same instance")
	}
}

func TestVecNilSafety(t *testing.T) {
	var r *Registry
	r.CounterVec("x", "l").With("v").Inc()
	r.GaugeVec("y", "l").With("v").Set(3)
	r.HistogramVec("z", LatencyBuckets(), "l").With("v").Observe(5)
	var cv *CounterVec
	cv.With("v").Inc() // must not panic
}

func TestVecWrongArity(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("a", "l1", "l2")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong label-value count")
		}
	}()
	vec.With("only-one")
}

func TestVecCardinalityBudget(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVecBounded("topics", 4, "topic")
	for i := 0; i < 10; i++ {
		vec.With(fmt.Sprintf("t%d", i)).Inc()
	}
	snap := r.Snapshot()
	// 4 real series plus one overflow series absorbing the rest.
	var real, overflow int64
	for key, v := range snap.Counters {
		name, labels := ParseSeries(key)
		if name != "topics" {
			continue
		}
		if labels["topic"] == LabelOverflow {
			overflow += v
			continue
		}
		real++
	}
	if real != 4 {
		t.Errorf("real series = %d, want 4", real)
	}
	if overflow != 6 {
		t.Errorf("overflow observations = %d, want 6", overflow)
	}
	if got := snap.Counters[overflowCounterName]; got != 6 {
		t.Errorf("%s = %d, want 6", overflowCounterName, got)
	}
}

func TestVecConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("conc", "worker")
	gvec := r.GaugeVec("conc.g", "worker")
	hvec := r.HistogramVec("conc.h", CountBuckets(), "worker")
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := fmt.Sprintf("w%d", w%4) // deliberate sharing across goroutines
			for i := 0; i < perWorker; i++ {
				vec.With(label).Inc()
				gvec.With(label).Set(int64(i))
				hvec.With(label).Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total int64
	for key, v := range snap.Counters {
		if name, _ := ParseSeries(key); name == "conc" {
			total += v
		}
	}
	if want := int64(workers * perWorker); total != want {
		t.Errorf("summed counter series = %d, want %d", total, want)
	}
}

func TestRenderParseSeriesRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		labels []string
		values []string
	}{
		{"plain", []string{"l"}, []string{"v"}},
		{"multi", []string{"a", "b"}, []string{"x", "y"}},
		{"escapes", []string{"l"}, []string{`qu"ote\back` + "\nline"}},
		{"strategy", []string{"strategy"}, []string{"GD*"}},
		{"empty.value", []string{"l"}, []string{""}},
		{"trailing.backslash", []string{"l"}, []string{`ends\`}},
		{"double.backslash", []string{"l"}, []string{`a\\b`}},
		{"literal.backslash.n", []string{"l"}, []string{`not\na\newline`}},
		{"only.newlines", []string{"l"}, []string{"\n\n"}},
		{"quote.at.edges", []string{"l"}, []string{`"quoted"`}},
		{"structural.bytes", []string{"l"}, []string{`a="b",c}{d`}},
		{"mixed.per.label", []string{"a", "b"}, []string{`x"`, "y\nz"}},
		{"unicode", []string{"l"}, []string{"snö∆\t页"}},
	}
	for _, c := range cases {
		key := RenderSeries(c.name, c.labels, c.values)
		name, labels := ParseSeries(key)
		if name != c.name {
			t.Errorf("ParseSeries(%q) name = %q, want %q", key, name, c.name)
		}
		for i, l := range c.labels {
			if got := labels[l]; got != c.values[i] {
				t.Errorf("ParseSeries(%q)[%q] = %q, want %q", key, l, got, c.values[i])
			}
		}
	}
	if name, labels := ParseSeries("no.labels"); name != "no.labels" || labels != nil {
		t.Errorf("unlabeled key parsed to %q / %v", name, labels)
	}
}

// FuzzSeriesRoundTrip drives arbitrary label values — quotes,
// backslashes, newlines, and every escaping edge the fuzzer invents —
// through RenderSeries and back through ParseSeries. The series key is
// the registry's storage format, so a value that fails to round-trip
// would silently corrupt scraped breakdowns.
func FuzzSeriesRoundTrip(f *testing.F) {
	f.Add("v", "w")
	f.Add(`qu"ote`, `back\slash`)
	f.Add("new\nline", "\n")
	f.Add(`ends\`, `\\`)
	f.Add(`not\na\newline`, `a="b",c}{d`)
	f.Add("", `"`)
	f.Fuzz(func(t *testing.T, v1, v2 string) {
		key := RenderSeries("fuzz.series", []string{"a", "b"}, []string{v1, v2})
		name, labels := ParseSeries(key)
		if name != "fuzz.series" {
			t.Fatalf("name %q from key %q", name, key)
		}
		if labels["a"] != v1 || labels["b"] != v2 {
			t.Fatalf("round-trip (%q, %q) -> %q -> (%q, %q)", v1, v2, key, labels["a"], labels["b"])
		}
	})
}

// BenchmarkCounterInc / BenchmarkCounterVecWith quantify the labeled
// hot-path premium: resolving a series through a vec versus a
// pre-resolved counter handle.
func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.plain")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterVecWith(b *testing.B) {
	r := NewRegistry()
	vec := r.CounterVec("bench.labeled", "strategy")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vec.With("GD*").Inc()
	}
}

// BenchmarkCounterVecPreResolved is the hot-path pattern the
// instrumentation actually uses (the simulator's run counters, proxy
// counters): resolve the series once, keep the *Counter, pay nothing
// per Inc.
func BenchmarkCounterVecPreResolved(b *testing.B) {
	r := NewRegistry()
	c := r.CounterVec("bench.labeled", "strategy").With("GD*")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
