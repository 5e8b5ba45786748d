// Package workload generates the paper's synthetic 7-day news-delivery
// workload (§4): a publishing stream, per-proxy request streams, and
// subscription counts, all derived from the published analysis of the
// MSNBC site (Padmanabhan & Qiu, SIGCOMM 2000) the paper parameterises
// from. Everything is deterministic given Config.Seed.
//
// Time is measured in hours from the start of the simulation; the default
// horizon is 7 days = 168 hours.
package workload

import (
	"fmt"

	"pubsubcd/internal/stats"
)

// HoursPerDay is the number of simulation hours per day.
const HoursPerDay = 24.0

// Config parameterises workload generation. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	// Seed drives all random draws.
	Seed int64
	// Days is the simulation horizon in days (paper: 7).
	Days int
	// Servers is the number of proxy servers (paper: 100).
	Servers int
	// DistinctPages is the number of original pages (paper: 6000).
	DistinctPages int
	// ModifiedPages is how many of the originals receive modified
	// versions (paper: 2400).
	ModifiedPages int
	// TotalPublished is the total size of the publishing sequence,
	// originals plus modified versions (paper: 30147).
	TotalPublished int
	// Alpha is the Zipf homogeneity parameter of the popularity
	// distribution (paper: 1.5 for NEWS, 1.0 for ALTERNATIVE).
	Alpha float64
	// TotalRequests is the total number of requests across all servers
	// (paper: ~195000 after the 1/1000 scale-down).
	TotalRequests int
	// SQ is the subscription quality of eq. 7; 1 means subscriptions
	// perfectly predict requests.
	SQ float64
	// SizeDist generates page sizes in bytes.
	SizeDist stats.LogNormal
	// ServerOverlap is the fraction of a page's candidate-server pool
	// kept from one day to the next (paper: 0.6).
	ServerOverlap float64
	// NotificationDrivenFrac is the fraction of (page, server) request
	// mass driven by notifications and therefore backed by
	// subscriptions. The paper assumes 1; values below 1 model its
	// stated future work of mixed request streams.
	NotificationDrivenFrac float64
}

// TraceName identifies the two request traces studied in the paper.
type TraceName string

const (
	// TraceNEWS is the news-like trace with Zipf alpha = 1.5.
	TraceNEWS TraceName = "NEWS"
	// TraceALTERNATIVE is the regular-web trace with Zipf alpha = 1.0.
	TraceALTERNATIVE TraceName = "ALTERNATIVE"
)

// ParseTrace validates a trace name from user input.
func ParseTrace(s string) (TraceName, error) {
	switch TraceName(s) {
	case TraceNEWS:
		return TraceNEWS, nil
	case TraceALTERNATIVE:
		return TraceALTERNATIVE, nil
	default:
		return "", fmt.Errorf("workload: unknown trace %q (want %s or %s)", s, TraceNEWS, TraceALTERNATIVE)
	}
}

// DefaultConfig returns the paper's full-scale configuration for the given
// trace.
func DefaultConfig(trace TraceName) Config {
	cfg := Config{
		Seed:                   1,
		Days:                   7,
		Servers:                100,
		DistinctPages:          6000,
		ModifiedPages:          2400,
		TotalPublished:         30147,
		Alpha:                  1.5,
		TotalRequests:          195000,
		SQ:                     1,
		SizeDist:               stats.PaperPageSizes,
		ServerOverlap:          0.6,
		NotificationDrivenFrac: 1,
	}
	if trace == TraceALTERNATIVE {
		cfg.Alpha = 1.0
	}
	return cfg
}

// ScaledConfig returns a configuration shrunk by factor (pages, requests
// and publications divided by factor) for tests and benchmarks. The
// distributional shape is preserved.
func ScaledConfig(trace TraceName, factor int) Config {
	cfg := DefaultConfig(trace)
	if factor <= 1 {
		return cfg
	}
	cfg.DistinctPages /= factor
	cfg.ModifiedPages /= factor
	cfg.TotalPublished /= factor
	cfg.TotalRequests /= factor
	if cfg.DistinctPages < 10 {
		cfg.DistinctPages = 10
	}
	if cfg.ModifiedPages >= cfg.DistinctPages {
		cfg.ModifiedPages = cfg.DistinctPages / 2
	}
	if cfg.TotalPublished < cfg.DistinctPages {
		cfg.TotalPublished = cfg.DistinctPages
	}
	if cfg.TotalRequests < 100 {
		cfg.TotalRequests = 100
	}
	return cfg
}

// Trace reports which named trace the config corresponds to, based on
// alpha.
func (c Config) Trace() TraceName {
	if c.Alpha >= 1.25 {
		return TraceNEWS
	}
	return TraceALTERNATIVE
}

// Horizon returns the simulation horizon in hours.
func (c Config) Horizon() float64 { return float64(c.Days) * HoursPerDay }

// Validate checks the configuration for consistency. Each range check
// is written so that NaN fails it.
func (c Config) Validate() error {
	switch {
	case c.Days <= 0:
		return fmt.Errorf("workload: Days must be positive, got %d", c.Days)
	case c.Servers <= 0:
		return fmt.Errorf("workload: Servers must be positive, got %d", c.Servers)
	case c.DistinctPages <= 0:
		return fmt.Errorf("workload: DistinctPages must be positive, got %d", c.DistinctPages)
	case c.ModifiedPages < 0 || c.ModifiedPages > c.DistinctPages:
		return fmt.Errorf("workload: ModifiedPages %d out of [0, %d]", c.ModifiedPages, c.DistinctPages)
	case c.TotalPublished < c.DistinctPages:
		return fmt.Errorf("workload: TotalPublished %d below DistinctPages %d", c.TotalPublished, c.DistinctPages)
	case !(0 <= c.Alpha):
		return fmt.Errorf("workload: Alpha must be non-negative, got %g", c.Alpha)
	case c.TotalRequests < 0:
		return fmt.Errorf("workload: TotalRequests must be non-negative, got %d", c.TotalRequests)
	case !(0 < c.SQ && c.SQ <= 1):
		return fmt.Errorf("workload: SQ must be in (0, 1], got %g", c.SQ)
	case !(0 <= c.ServerOverlap && c.ServerOverlap <= 1):
		return fmt.Errorf("workload: ServerOverlap must be in [0, 1], got %g", c.ServerOverlap)
	case !(0 <= c.NotificationDrivenFrac && c.NotificationDrivenFrac <= 1):
		return fmt.Errorf("workload: NotificationDrivenFrac must be in [0, 1], got %g", c.NotificationDrivenFrac)
	}
	return nil
}
