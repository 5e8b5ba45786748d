// Package core implements the paper's primary contribution: content
// distribution strategies for publish/subscribe proxies. A Strategy is the
// placement/replacement policy of a single proxy's cache; it is driven by
// two kinds of events (§3):
//
//   - Push: the matching engine routed a freshly published page (or a new
//     version) to this proxy because it matches subs local subscriptions.
//   - Request: a local user asked for the page.
//
// Strategies differ in *when* they place content (push time, access time
// or both) and *how* they value pages (access pattern, subscription counts
// or both). The package provides every scheme from the paper — GD*, SUB,
// SG1, SG2, SR, DM, DC-FP, DC-AP and DC-LAP — plus the classic
// access-time baselines the paper cites (LRU, GDS, LFU-DA).
package core

import (
	"errors"
	"fmt"
)

// PageMeta is the strategy-visible description of a page at one proxy.
type PageMeta struct {
	// ID identifies the page. It is a dense index: non-negative, and
	// each strategy keeps a slot table as long as the largest ID it has
	// cached, so its memory grows with that ID. Number pages 0, 1, 2, ...
	// as they are first seen (the simulator uses page indices; the
	// broker's Proxy interns page-ID strings). A negative ID is never
	// cached.
	ID int
	// Size is the content size in bytes.
	Size int64
	// Cost is the cost c(p) to fetch the page from the publisher, e.g.
	// the network distance of this proxy from the origin (§3.1).
	Cost float64
}

// Strategy is a per-proxy content placement and replacement policy.
//
// Both methods report whether the page is resident in the local cache
// afterwards; the simulator uses that to account traffic under the two
// pushing schemes of §5.6.
type Strategy interface {
	// Name returns the scheme's short name (e.g. "GD*", "DC-LAP").
	Name() string
	// Push offers a freshly published version of a page that matches
	// subs local subscriptions. It returns true if the page (at this
	// version) is stored locally afterwards.
	Push(p PageMeta, version, subs int) (stored bool)
	// Request serves a local user request for the given version. hit
	// reports whether the current version was already cached (response
	// served locally); stored reports whether the page is resident
	// afterwards.
	Request(p PageMeta, version, subs int) (hit, stored bool)
	// Used returns the number of bytes currently cached.
	Used() int64
	// Capacity returns the cache capacity in bytes.
	Capacity() int64
	// Len returns the number of cached pages.
	Len() int
}

// Params configures strategy construction for one proxy.
type Params struct {
	// Capacity is the cache capacity in bytes. Must be positive.
	Capacity int64
	// Beta is the GD* balance parameter β of eq. 1 (ignored by
	// strategies that don't use the GD* framework). Must be positive
	// for strategies that use it.
	Beta float64
	// Metrics, when non-nil, receives live telemetry from the
	// strategy's hot path (decision counters and sampled latencies).
	// Nil disables instrumentation at the cost of one branch per op.
	Metrics *StrategyMetrics
}

func (p Params) validate() error {
	if p.Capacity <= 0 {
		return fmt.Errorf("core: capacity must be positive, got %d", p.Capacity)
	}
	return nil
}

func (p Params) validateBeta() error {
	if err := p.validate(); err != nil {
		return err
	}
	if p.Beta <= 0 {
		return fmt.Errorf("core: beta must be positive, got %g", p.Beta)
	}
	return nil
}

// PlacementTime classifies *when* a scheme places content in the proxy
// cache (the "when" axis of the paper's Table 1).
type PlacementTime int

const (
	// PlaceAtAccess places content only when a user requests it
	// (classic caching).
	PlaceAtAccess PlacementTime = iota
	// PlaceAtPush places content only when the matching engine pushes
	// a freshly published page.
	PlaceAtPush
	// PlaceAtBoth places content at both opportunities.
	PlaceAtBoth
)

// String renders the paper's Table 1 label for the placement time.
func (t PlacementTime) String() string {
	switch t {
	case PlaceAtAccess:
		return "access-time"
	case PlaceAtPush:
		return "push-time"
	case PlaceAtBoth:
		return "access+push"
	default:
		return fmt.Sprintf("PlacementTime(%d)", int(t))
	}
}

// ValueSource classifies *what information* a scheme uses to value pages
// (the "how" axis of the paper's Table 1).
type ValueSource int

const (
	// ValueFromAccess values pages by observed access pattern.
	ValueFromAccess ValueSource = iota
	// ValueFromSubscription values pages by subscription counts.
	ValueFromSubscription
	// ValueFromBoth combines access pattern and subscription counts.
	ValueFromBoth
)

// String renders the paper's Table 1 label for the value source.
func (s ValueSource) String() string {
	switch s {
	case ValueFromAccess:
		return "access"
	case ValueFromSubscription:
		return "subscription"
	case ValueFromBoth:
		return "access+subscription"
	default:
		return fmt.Sprintf("ValueSource(%d)", int(s))
	}
}

// Factory builds one Strategy instance per proxy.
type Factory struct {
	// Name is the scheme name.
	Name string
	// When classifies the placement opportunities the scheme uses.
	When PlacementTime
	// How classifies the information the scheme uses.
	How ValueSource
	// New constructs a proxy-local instance.
	New func(Params) (Strategy, error)
}

// UsesPush reports whether the scheme places content at push time. The
// simulator routes matched publications only to pushing schemes; for
// access-time-only schemes the push-time module does not exist, so they
// incur no push traffic under either pushing scheme.
func (f Factory) UsesPush() bool {
	return f.When != PlaceAtAccess
}

// ErrUnknownStrategy is returned by Lookup for unrecognised names.
var ErrUnknownStrategy = errors.New("core: unknown strategy")

// Catalog returns the factories for every scheme in the paper's Table 1,
// plus the classic baselines. The order matches the paper's presentation.
func Catalog() []Factory {
	return []Factory{
		{Name: "GD*", When: PlaceAtAccess, How: ValueFromAccess, New: NewGDStar},
		{Name: "SUB", When: PlaceAtPush, How: ValueFromSubscription, New: NewSUB},
		{Name: "SG1", When: PlaceAtBoth, How: ValueFromBoth, New: NewSG1},
		{Name: "SG2", When: PlaceAtBoth, How: ValueFromBoth, New: NewSG2},
		{Name: "SR", When: PlaceAtBoth, How: ValueFromBoth, New: NewSR},
		{Name: "DM", When: PlaceAtBoth, How: ValueFromBoth, New: NewDM},
		{Name: "DC-FP", When: PlaceAtBoth, How: ValueFromBoth, New: NewDCFP},
		{Name: "DC-AP", When: PlaceAtBoth, How: ValueFromBoth, New: NewDCAP},
		{Name: "DC-LAP", When: PlaceAtBoth, How: ValueFromBoth, New: NewDCLAP},
		{Name: "LRU", When: PlaceAtAccess, How: ValueFromAccess, New: NewLRU},
		{Name: "GDS", When: PlaceAtAccess, How: ValueFromAccess, New: NewGDS},
		{Name: "LFU-DA", When: PlaceAtAccess, How: ValueFromAccess, New: NewLFUDA},
	}
}

// Lookup returns the factory with the given name, or ErrUnknownStrategy.
func Lookup(name string) (Factory, error) {
	for _, f := range Catalog() {
		if f.Name == name {
			return f, nil
		}
	}
	return Factory{}, fmt.Errorf("%w: %q", ErrUnknownStrategy, name)
}
