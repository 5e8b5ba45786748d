package stats

import (
	"fmt"
	"math"
	"sort"
)

// LogNormal is a log-normal distribution with parameters mu and sigma of
// the underlying normal. The paper generates page sizes with mu = 9.357 and
// sigma = 1.318 (footnote 1 of §4.1, from Barford & Crovella).
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// PaperPageSizes is the log-normal page-size distribution the paper uses.
var PaperPageSizes = LogNormal{Mu: 9.357, Sigma: 1.318}

// Sample draws one value.
func (ln LogNormal) Sample(g *RNG) float64 {
	return math.Exp(ln.Mu + ln.Sigma*g.NormFloat64())
}

// SampleBytes draws a page size in whole bytes, at least 1.
func (ln LogNormal) SampleBytes(g *RNG) int64 {
	v := int64(math.Round(ln.Sample(g)))
	if v < 1 {
		v = 1
	}
	return v
}

// Mean returns the analytic mean exp(mu + sigma^2/2).
func (ln LogNormal) Mean() float64 {
	return math.Exp(ln.Mu + ln.Sigma*ln.Sigma/2)
}

// Median returns the analytic median exp(mu).
func (ln LogNormal) Median() float64 { return math.Exp(ln.Mu) }

// StepWise is a piecewise-uniform distribution over half-open intervals:
// with probability Weights[i] a sample is drawn uniformly from
// [Bounds[i], Bounds[i+1]). The paper's modification intervals use
// 5 % in (0, 1h), 90 % in [1h, 1d), 5 % in [1d, 7d) (§4.1).
type StepWise struct {
	// Bounds has len(Weights)+1 ascending entries.
	Bounds []float64
	// Weights sum to 1 (normalised by NewStepWise).
	Weights []float64
	cum     []float64
}

// NewStepWise builds a step-wise distribution. bounds must be strictly
// ascending with exactly one more entry than weights; weights must be
// non-negative with a positive sum (they are normalised).
func NewStepWise(bounds, weights []float64) (*StepWise, error) {
	if len(bounds) != len(weights)+1 {
		return nil, fmt.Errorf("stepwise: need len(bounds) == len(weights)+1, got %d and %d", len(bounds), len(weights))
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("stepwise: need at least one interval")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("stepwise: negative weight %g at %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("stepwise: weights sum to %g, need > 0", total)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("stepwise: bounds must be strictly ascending at index %d", i)
		}
	}
	sw := &StepWise{
		Bounds:  append([]float64(nil), bounds...),
		Weights: make([]float64, len(weights)),
		cum:     make([]float64, len(weights)),
	}
	run := 0.0
	for i, w := range weights {
		sw.Weights[i] = w / total
		run += w / total
		sw.cum[i] = run
	}
	sw.cum[len(sw.cum)-1] = 1
	return sw, nil
}

// Sample draws one value.
func (sw *StepWise) Sample(g *RNG) float64 {
	u := g.Float64()
	i := sort.SearchFloat64s(sw.cum, u)
	if i >= len(sw.Weights) {
		i = len(sw.Weights) - 1
	}
	return g.UniformRange(sw.Bounds[i], sw.Bounds[i+1])
}

// Pareto is a bounded Pareto-style age distribution used to place request
// times after a page's publication: the density decays as age^-(gamma+1),
// truncated to [Xm, Max]. A larger gamma concentrates samples near Xm
// (fresh pages); gamma near zero spreads them toward Max.
type Pareto struct {
	Xm    float64 // scale (minimum age), > 0
	Gamma float64 // shape, > 0
	Max   float64 // truncation bound, > Xm
}

// Lomax is a shifted Pareto distribution on [0, Max]: the density is
// proportional to (1 + x/Scale)^-(Gamma+1), so it is finite at zero and
// decays as a power law. The workload uses it for request ages: requests
// can arrive immediately after publication, most arrive within a few
// Scale units, and a Gamma-controlled tail keeps old pages referenced.
type Lomax struct {
	Scale float64 // > 0
	Gamma float64 // shape, > 0
	Max   float64 // truncation bound, > 0
}

// Median returns the analytic median of the untruncated distribution.
func (l Lomax) Median() float64 {
	return l.Scale * (math.Pow(2, 1/l.Gamma) - 1)
}

// Sample draws a truncated Lomax variate in [0, Max] by inversion.
func (l Lomax) Sample(g *RNG) float64 {
	return l.invert(g.Float64() * l.cdfMax())
}

// Fill fills dst with len(dst) variates: the draws and values of as many
// Sample calls, with the truncation's CDF bound computed once.
func (l Lomax) Fill(g *RNG, dst []float64) {
	fMax := l.cdfMax()
	for i := range dst {
		dst[i] = l.invert(g.Float64() * fMax)
	}
}

// cdfMax is the untruncated CDF, F(x) = 1 - (1 + x/s)^-g, at Max.
func (l Lomax) cdfMax() float64 {
	return 1 - math.Pow(1+l.Max/l.Scale, -l.Gamma)
}

// invert returns the variate at u in [0, F(Max)), clamped to [0, Max].
func (l Lomax) invert(u float64) float64 {
	x := l.Scale * (math.Pow(1-u, -1/l.Gamma) - 1)
	if x > l.Max {
		x = l.Max
	}
	if x < 0 {
		x = 0
	}
	return x
}

// Sample draws a truncated Pareto variate in [Xm, Max] by inversion.
func (p Pareto) Sample(g *RNG) float64 {
	// CDF on [Xm, Max]: F(x) = (1-(Xm/x)^g) / (1-(Xm/Max)^g).
	u := g.Float64()
	denom := 1 - math.Pow(p.Xm/p.Max, p.Gamma)
	x := p.Xm / math.Pow(1-u*denom, 1/p.Gamma)
	if x > p.Max {
		x = p.Max
	}
	if x < p.Xm {
		x = p.Xm
	}
	return x
}
