// Package stats provides the random-number and distribution substrate used
// by the workload generators and the topology builder: a splittable seeded
// RNG, Zipf and log-normal samplers, the step-wise interval distribution
// from the paper's publishing model, and summary statistics.
//
// Everything in this package is deterministic given a seed, so simulation
// experiments are exactly reproducible.
package stats

import (
	"math/rand"
)

// RNG is a seeded source of randomness. It wraps math/rand.Rand so that
// every component of the simulator can own an independent, reproducible
// stream derived from a master seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives a new independent RNG from this one, keyed by label. Two
// Splits with different labels yield different streams; the same label on
// an RNG in the same state yields the same stream.
func (g *RNG) Split(label string) *RNG {
	var h int64 = 1469598103934665603 // FNV-1a offset basis (truncated)
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return NewRNG(h ^ g.r.Int63())
}

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns an exponentially distributed float64 with mean 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Perm returns a random permutation of [0, n), the one math/rand's
// Perm returns from the same state.
func (g *RNG) Perm(n int) []int {
	m := make([]int, n)
	g.PermInto(m)
	return m
}

// PermInto fills m with the permutation Perm(len(m)) would return,
// making the same draws, so a caller can reuse one buffer where it
// would call Perm. The loop is math/rand's Perm.
func (g *RNG) PermInto(m []int) {
	for i := range m {
		j := g.r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// UniformRange returns a uniform float64 in [lo, hi).
func (g *RNG) UniformRange(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}
