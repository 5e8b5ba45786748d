package workload

import (
	"fmt"
	"slices"

	"pubsubcd/internal/stats"
)

// DeriveClosedLoop builds a closed-loop request stream from a workload's
// subscriptions: the paper assumes "users only request pages based on
// notification" (§4.3), so instead of the open-loop trace (requests drawn
// first, subscriptions derived from them) this mode generates each
// request *from* a subscription — when a page is first published, every
// matching subscriber reads it with probability SQ after a popularity-
// class-dependent think delay, and re-reads later versions with the same
// probability scaled by the page's residual interest.
//
// The returned workload shares pages, publications and subscriptions with
// w but carries the regenerated request stream. It validates the
// open-loop construction: simulations on both streams should rank the
// strategies identically.
func DeriveClosedLoop(w *Workload, seed int64) (*Workload, error) {
	if w == nil {
		return nil, fmt.Errorf("workload: nil workload")
	}
	cfg := w.Config
	g := stats.NewRNG(seed).Split("closed-loop")
	horizon := cfg.Horizon()

	var requests []Request
	for page := range w.Pages {
		p := &w.Pages[page]
		delay := ageDistByClass[p.Class]
		remaining := horizon - p.FirstPublish
		if remaining <= 1e-6 {
			remaining = 1e-6
		}
		delay.Max = remaining
		for server, subCount := range w.Subscriptions[page] {
			for k := int32(0); k < subCount; k++ {
				if g.Float64() >= cfg.SQ {
					continue // this subscriber never reads the page
				}
				t := p.FirstPublish + delay.Sample(g)
				if t >= horizon {
					t = horizon - 1e-9
				}
				requests = append(requests, Request{Time: t, Page: int32(page), Server: int32(server)})
			}
		}
	}
	slices.SortFunc(requests, compareRequests)

	out := &Workload{
		Config:        cfg,
		Pages:         w.Pages,
		Publications:  w.Publications,
		Requests:      requests,
		Subscriptions: w.Subscriptions,
	}
	out.Config.TotalRequests = len(requests)
	return out, nil
}
