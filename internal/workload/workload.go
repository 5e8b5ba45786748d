package workload

import (
	"fmt"

	"pubsubcd/internal/stats"
)

// Workload is a complete generated workload: the inputs of the simulator
// in Fig. 2 of the paper (publishing stream, request streams, aggregated
// subscriptions).
type Workload struct {
	Config Config
	// Pages holds the distinct pages, indexed by page ID.
	Pages []Page
	// Publications is the publishing stream sorted by time.
	Publications []Publication
	// Requests is the request stream sorted by time.
	Requests []Request
	// Subscriptions[page][server] is the number of end-user
	// subscriptions matching the page aggregated at the server.
	Subscriptions [][]int32

	// eventsCache memoises the per-server event view (see Events). The
	// embedded sync.Once also makes `go vet` flag value copies of
	// Workload, which would silently drop the cache.
	eventsCache
}

// Generate builds a workload from cfg. It is deterministic in cfg.Seed.
func Generate(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	master := stats.NewRNG(cfg.Seed)
	pages := makePages(cfg, master.Split("pages"))
	counts, err := assignPopularity(cfg, pages, master.Split("popularity"))
	if err != nil {
		return nil, err
	}
	pubs, err := generatePublishing(cfg, pages, master.Split("publishing"))
	if err != nil {
		return nil, err
	}
	requests, err := generateRequests(cfg, pages, counts, master.Split("requests"))
	if err != nil {
		return nil, err
	}
	subs, err := generateSubscriptions(cfg, pages, requests, master.Split("subscriptions"))
	if err != nil {
		return nil, err
	}
	return &Workload{
		Config:        cfg,
		Pages:         pages,
		Publications:  pubs,
		Requests:      requests,
		Subscriptions: subs,
	}, nil
}

// SubCount returns the number of subscriptions matching page at server.
func (w *Workload) SubCount(page, server int) int {
	if page < 0 || page >= len(w.Subscriptions) {
		return 0
	}
	row := w.Subscriptions[page]
	if server < 0 || server >= len(row) {
		return 0
	}
	return int(row[server])
}

// UniqueBytesPerServer returns, for each server, the total size of the
// distinct pages it requests over the whole trace. The paper sizes each
// proxy cache as a percentage of this quantity (§5.1). It takes one
// pass over the requests and does not build the event view.
func (w *Workload) UniqueBytesPerServer() []int64 {
	return uniqueBytes(w)
}

// CacheCapacities returns per-server cache capacities in bytes for a
// capacity fraction (e.g. 0.05 for the paper's 5 % setting). Servers that
// request nothing get a minimal 1-byte cache so the strategies stay
// well-defined. Like UniqueBytesPerServer, it does not build the event
// view.
func (w *Workload) CacheCapacities(fraction float64) ([]int64, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("workload: capacity fraction must be in (0, 1], got %g", fraction)
	}
	return capacities(uniqueBytes(w), fraction), nil
}

// RequestsPerServer returns the number of requests issued at each server.
func (w *Workload) RequestsPerServer() []int64 {
	out := make([]int64, w.Config.Servers)
	for _, r := range w.Requests {
		out[r.Server]++
	}
	return out
}

// TotalSubscriptions returns the sum of all subscription counts.
func (w *Workload) TotalSubscriptions() int64 {
	var total int64
	for _, row := range w.Subscriptions {
		for _, n := range row {
			total += int64(n)
		}
	}
	return total
}
