package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestLogNormalMoments(t *testing.T) {
	ln := LogNormal{Mu: 2, Sigma: 0.5}
	g := NewRNG(7)
	const n = 300000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += ln.Sample(g)
	}
	mean := sum / n
	want := ln.Mean()
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("empirical mean %g, analytic %g", mean, want)
	}
}

func TestLogNormalPaperParameters(t *testing.T) {
	// The paper's page sizes: mu=9.357, sigma=1.318 => median ~11.6 KB.
	med := PaperPageSizes.Median()
	if med < 10000 || med > 13000 {
		t.Errorf("paper page-size median %g outside plausible ~11.6KB window", med)
	}
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if b := PaperPageSizes.SampleBytes(g); b < 1 {
			t.Fatalf("SampleBytes returned %d < 1", b)
		}
	}
}

func TestNewStepWiseValidation(t *testing.T) {
	tests := []struct {
		name    string
		bounds  []float64
		weights []float64
		ok      bool
	}{
		{"valid", []float64{0, 1, 2}, []float64{0.5, 0.5}, true},
		{"mismatched lengths", []float64{0, 1}, []float64{0.5, 0.5}, false},
		{"empty", []float64{0}, nil, false},
		{"descending bounds", []float64{0, 2, 1}, []float64{0.5, 0.5}, false},
		{"equal bounds", []float64{0, 1, 1}, []float64{0.5, 0.5}, false},
		{"negative weight", []float64{0, 1, 2}, []float64{-1, 2}, false},
		{"zero weights", []float64{0, 1, 2}, []float64{0, 0}, false},
		{"unnormalised ok", []float64{0, 1, 2}, []float64{3, 1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewStepWise(tt.bounds, tt.weights)
			if tt.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tt.ok && err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestStepWiseNormalisesWeights(t *testing.T) {
	sw, err := NewStepWise([]float64{0, 1, 2}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sw.Weights[0]-0.75) > 1e-12 || math.Abs(sw.Weights[1]-0.25) > 1e-12 {
		t.Errorf("weights = %v, want [0.75 0.25]", sw.Weights)
	}
}

func TestStepWiseSamplesInBoundsAndProportioned(t *testing.T) {
	// The paper's modification-interval distribution: 5% < 1h, 90% in
	// [1h,1d), 5% in [1d,7d).
	hour := 3600.0
	day := 24 * hour
	sw, err := NewStepWise([]float64{60, hour, day, 7 * day}, []float64{0.05, 0.90, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	g := NewRNG(99)
	const n = 100000
	var lo, mid, hi int
	for i := 0; i < n; i++ {
		v := sw.Sample(g)
		if v < 60 || v >= 7*day {
			t.Fatalf("sample %g outside [60, 7d)", v)
		}
		switch {
		case v < hour:
			lo++
		case v < day:
			mid++
		default:
			hi++
		}
	}
	checkFrac := func(name string, got int, want float64) {
		f := float64(got) / n
		if math.Abs(f-want) > 0.01 {
			t.Errorf("%s fraction %g, want %g", name, f, want)
		}
	}
	checkFrac("lo", lo, 0.05)
	checkFrac("mid", mid, 0.90)
	checkFrac("hi", hi, 0.05)
}

func TestParetoSampleBounds(t *testing.T) {
	p := Pareto{Xm: 1, Gamma: 1.2, Max: 100}
	g := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := p.Sample(g)
		if v < p.Xm || v > p.Max {
			t.Fatalf("sample %g outside [%g, %g]", v, p.Xm, p.Max)
		}
	}
}

func TestParetoGammaControlsDecay(t *testing.T) {
	// Higher gamma concentrates mass near Xm.
	g := NewRNG(11)
	steep := Pareto{Xm: 1, Gamma: 3, Max: 1000}
	flat := Pareto{Xm: 1, Gamma: 0.3, Max: 1000}
	const n = 50000
	var steepNear, flatNear int
	for i := 0; i < n; i++ {
		if steep.Sample(g) < 2 {
			steepNear++
		}
		if flat.Sample(g) < 2 {
			flatNear++
		}
	}
	if steepNear <= flatNear {
		t.Errorf("steep gamma should concentrate near Xm: steep=%d flat=%d", steepNear, flatNear)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	g := NewRNG(123)
	a := g.Split("publishing")
	g2 := NewRNG(123)
	b := g2.Split("requests")
	// Different labels from the same master state yield different streams.
	same := 0
	for i := 0; i < 100; i++ {
		if a.Intn(1000) == b.Intn(1000) {
			same++
		}
	}
	if same > 20 {
		t.Errorf("split streams look correlated: %d/100 equal draws", same)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(77).Split("x")
	b := NewRNG(77).Split("x")
	for i := 0; i < 100; i++ {
		if av, bv := a.Int63(), b.Int63(); av != bv {
			t.Fatalf("same seed+label diverged at %d: %d vs %d", i, av, bv)
		}
	}
}

// TestPermMatchesMathRand: Perm, and PermInto on a reused buffer, yield
// math/rand's Perm permutation and leave the RNG in its state, for every
// length from 0 to 40 in one shared sequence of draws.
func TestPermMatchesMathRand(t *testing.T) {
	ref := rand.New(rand.NewSource(9))
	a, b := NewRNG(9), NewRNG(9)
	buf := make([]int, 40)
	for n := 0; n <= len(buf); n++ {
		want := ref.Perm(n)
		if got := a.Perm(n); !slices.Equal(got, want) {
			t.Fatalf("Perm(%d) = %v, math/rand = %v", n, got, want)
		}
		got := buf[:n]
		b.PermInto(got)
		if !slices.Equal(got, want) {
			t.Fatalf("PermInto(%d) = %v, math/rand = %v", n, got, want)
		}
		r, av, bv := ref.Int63(), a.Int63(), b.Int63()
		if av != r || bv != r {
			t.Fatalf("after n=%d the RNGs diverged: %d and %d, math/rand %d", n, av, bv, r)
		}
	}
}

// TestLomaxFillMatchesSample: Fill yields, bit for bit, the variates of
// as many Sample calls and leaves the RNG in the same state, for a
// fresh-page shape and a wide tail truncated near zero.
func TestLomaxFillMatchesSample(t *testing.T) {
	for _, l := range []Lomax{{Scale: 6, Gamma: 1.1, Max: 160}, {Scale: 48, Gamma: 0.2, Max: 1e-6}} {
		a, b := NewRNG(5), NewRNG(5)
		got := make([]float64, 200)
		l.Fill(b, got)
		for i, v := range got {
			if want := l.Sample(a); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%+v: Fill[%d] = %v, Sample = %v", l, i, v, want)
			}
		}
		if av, bv := a.Int63(), b.Int63(); av != bv {
			t.Fatalf("%+v: the RNGs diverged after 200 draws", l)
		}
	}
}

func TestUniformRangeProperty(t *testing.T) {
	g := NewRNG(3)
	f := func(loRaw, spanRaw uint16) bool {
		lo := float64(loRaw)
		span := float64(spanRaw) + 1
		v := g.UniformRange(lo, lo+span)
		return v >= lo && v < lo+span
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
