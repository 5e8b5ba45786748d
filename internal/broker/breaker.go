package broker

import (
	"sync"
	"time"
)

// Breaker is a classic three-state circuit breaker for calls to one
// remote target (a cluster peer, a remote-link uplink). Closed passes
// everything; a run of consecutive failures opens it; while open,
// Allow fails fast — no dial, no request timeout burned against a
// target known dead. After the cooldown one probe call is let through
// (half-open); its outcome closes the breaker or re-opens it for
// another cooldown.
//
// The point is latency under partition: a bounded-retry loop against a
// dead peer pays the full request timeout on every attempt, while a
// breaker pays it once per cooldown.
type BreakerState int32

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String returns the state's metric/dashboard label.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is safe for concurrent use. The zero value is not valid; use
// NewBreaker.
type Breaker struct {
	mu        sync.Mutex
	state     BreakerState
	failures  int
	threshold int           // consecutive failures that open the breaker
	cooldown  time.Duration // open duration before a half-open probe
	openUntil time.Time
	probing   bool // half-open: one probe in flight

	// onChange observes state transitions (telemetry); may be nil.
	// Called outside the lock with the new state.
	onChange func(BreakerState)
}

// Defaults used by cluster member links and remote-link uplinks.
const (
	defaultBreakerThreshold = 3
	defaultBreakerCooldown  = 2 * time.Second
)

// NewBreaker builds a closed breaker that opens after threshold
// consecutive failures and probes again after cooldown. Non-positive
// arguments take the defaults.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = defaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// OnChange registers a state-transition observer (telemetry gauge,
// opens counter). Call before the breaker sees traffic.
func (b *Breaker) OnChange(fn func(BreakerState)) { b.onChange = fn }

// Allow reports whether a call may proceed. Open fails fast until the
// cooldown elapses; then exactly one caller gets a half-open probe and
// the rest keep failing fast until the probe resolves via Success or
// Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.mu.Unlock()
		return true
	case BreakerOpen:
		if time.Now().Before(b.openUntil) {
			b.mu.Unlock()
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		b.mu.Unlock()
		b.notify(BreakerHalfOpen)
		return true
	default: // BreakerHalfOpen
		if b.probing {
			b.mu.Unlock()
			return false
		}
		b.probing = true
		b.mu.Unlock()
		return true
	}
}

// Success records a successful call: resets the failure run and closes
// the breaker from half-open.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.failures = 0
	b.probing = false
	transitioned := b.state != BreakerClosed
	b.state = BreakerClosed
	b.mu.Unlock()
	if transitioned {
		b.notify(BreakerClosed)
	}
}

// Failure records a failed call: a failed half-open probe re-opens
// immediately; in closed, the threshold'th consecutive failure opens.
func (b *Breaker) Failure() {
	b.mu.Lock()
	b.probing = false
	var transitioned bool
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openUntil = time.Now().Add(b.cooldown)
		transitioned = true
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = BreakerOpen
			b.openUntil = time.Now().Add(b.cooldown)
			transitioned = true
		}
	case BreakerOpen:
		// A failure landing while already open (e.g. an in-flight call
		// that started before the open) extends nothing: the cooldown
		// clock keeps its schedule.
	}
	b.mu.Unlock()
	if transitioned {
		b.notify(BreakerOpen)
	}
}

// State returns the current state (open reads as open even past the
// cooldown until a caller actually probes).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *Breaker) notify(s BreakerState) {
	if b.onChange != nil {
		b.onChange(s)
	}
}
