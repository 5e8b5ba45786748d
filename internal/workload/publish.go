package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pubsubcd/internal/stats"
)

// Page is an original page of the publishing stream.
type Page struct {
	// ID indexes the page in Workload.Pages.
	ID int
	// Rank is the 1-based Zipf popularity rank.
	Rank int
	// Size is the content size in bytes, constant across versions.
	Size int64
	// FirstPublish is the publication time of version 0 in hours.
	FirstPublish float64
	// Class is the popularity class in [0, 3]; 0 is the hottest decade
	// of request rates (§4.2, "Deciding Request Times").
	Class int
	// Versions is the total number of published versions (>= 1).
	Versions int
}

// Publication is one entry of the publishing stream: version v of a page
// becomes available at Time. Version 0 is the original. Page and
// Version are int32, the widths the event view stores them in, so an
// entry is 16 bytes (TestTraceRecordsAreSixteenBytes).
type Publication struct {
	Time    float64
	Page    int32
	Version int32
}

// modificationIntervals returns the step-wise distribution of page
// modification intervals (§4.1): 5 % shorter than an hour, 90 % between an
// hour and a day, 5 % between a day and the horizon.
func modificationIntervals(horizon float64) (*stats.StepWise, error) {
	hi := 7 * HoursPerDay
	if horizon < hi {
		hi = horizon
	}
	if hi <= HoursPerDay {
		// Short horizons collapse the >1 day bucket.
		return stats.NewStepWise(
			[]float64{0.1, 1, hi},
			[]float64{0.05, 0.95},
		)
	}
	return stats.NewStepWise(
		[]float64{0.1, 1, HoursPerDay, hi},
		[]float64{0.05, 0.90, 0.05},
	)
}

// makePages creates the distinct pages with sizes and first-publish times.
func makePages(cfg Config, g *stats.RNG) []Page {
	horizon := cfg.Horizon()
	pages := make([]Page, cfg.DistinctPages)
	for i := range pages {
		pages[i] = Page{
			ID:           i,
			Size:         cfg.SizeDist.SampleBytes(g),
			FirstPublish: g.Float64() * horizon,
			Versions:     1,
		}
	}
	return pages
}

// modBiasExponent controls how strongly modification is correlated with
// popularity: pages are sampled for modification with weight
// rank^-modBiasExponent. Following the observation the paper builds on
// (Padmanabhan & Qiu; also the Gadde et al. quote in §4 that popular
// objects have high update frequencies), popular news pages are updated
// more often; the exponent is calibrated so the baseline's hit ratio and
// the pushing traffic land in the paper's reported range.
const modBiasExponent = 0.45

// chooseModified picks which pages receive modified versions, biased
// toward popular pages.
func chooseModified(cfg Config, pages []Page, g *stats.RNG) []int {
	type cand struct {
		page int
		key  float64
	}
	cands := make([]cand, len(pages))
	for i := range pages {
		w := math.Pow(float64(pages[i].Rank), -modBiasExponent)
		// Weighted sampling without replacement via exponential keys:
		// key = Exp(1)/w; the smallest ModifiedPages keys win.
		cands[i] = cand{page: i, key: g.ExpFloat64() / w}
	}
	slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(a.key, b.key) })
	out := make([]int, cfg.ModifiedPages)
	for i := 0; i < cfg.ModifiedPages; i++ {
		out[i] = cands[i].page
	}
	return out
}

// assignIntervals draws modification intervals from the paper's step-wise
// distribution and assigns them assortatively: the most popular modified
// pages get the shortest intervals (breaking news is updated most often,
// per the Padmanabhan-Qiu observations the workload builds on).
func assignIntervals(cfg Config, pages []Page, modified []int, g *stats.RNG) (map[int]float64, error) {
	dist, err := modificationIntervals(cfg.Horizon())
	if err != nil {
		return nil, fmt.Errorf("workload: modification intervals: %w", err)
	}
	intervals := make([]float64, len(modified))
	for i := range intervals {
		intervals[i] = dist.Sample(g)
	}
	slices.Sort(intervals)
	byRank := slices.Clone(modified)
	slices.SortFunc(byRank, func(a, b int) int { return cmp.Compare(pages[a].Rank, pages[b].Rank) })
	out := make(map[int]float64, len(modified))
	for i, p := range byRank {
		out[p] = intervals[i]
	}
	return out, nil
}

// countVersions returns the number of modified versions page p would
// publish with its interval scaled by lambda.
func countVersions(horizon, firstPublish, interval, lambda float64) int {
	iv := interval * lambda
	if iv <= 0 {
		return 0
	}
	n := int((horizon - firstPublish) / iv)
	if n < 0 {
		n = 0
	}
	return n
}

// generatePublishing builds the pages and the time-sorted publishing
// stream. Pages must already carry popularity ranks. Modified pages
// republish at their fixed interval until the horizon; a single global
// scale factor on the intervals is solved by bisection so the stream
// totals cfg.TotalPublished entries (the paper fixes the total at 30,147)
// while preserving the relative update frequencies across pages.
func generatePublishing(cfg Config, pages []Page, g *stats.RNG) ([]Publication, error) {
	horizon := cfg.Horizon()
	quota := cfg.TotalPublished - cfg.DistinctPages

	pubs := make([]Publication, 0, cfg.TotalPublished)
	for i := range pages {
		pubs = append(pubs, Publication{Time: pages[i].FirstPublish, Page: int32(i), Version: 0})
	}

	if cfg.ModifiedPages > 0 && quota > 0 {
		modified := chooseModified(cfg, pages, g)
		intervals, err := assignIntervals(cfg, pages, modified, g)
		if err != nil {
			return nil, err
		}
		total := func(lambda float64) int {
			n := 0
			for p, iv := range intervals {
				n += countVersions(horizon, pages[p].FirstPublish, iv, lambda)
			}
			return n
		}
		// Bisection on the interval scale: larger lambda → longer
		// intervals → fewer versions.
		lo, hi := 1e-3, 1e3
		if total(lo) < quota {
			hi = lo // even the densest scaling undershoots; keep all
		} else {
			for i := 0; i < 60; i++ {
				mid := math.Sqrt(lo * hi) // geometric bisection
				if total(mid) > quota {
					lo = mid
				} else {
					hi = mid
				}
			}
		}
		lambda := hi
		// Emit versions; trim any overshoot from the sparsest pages'
		// final versions (deterministic, keeps hot pages intact).
		type pv struct {
			page int
			time float64
			ver  int
		}
		var versions []pv
		pageIDs := make([]int, 0, len(intervals))
		for p := range intervals {
			pageIDs = append(pageIDs, p)
		}
		slices.Sort(pageIDs)
		for _, p := range pageIDs {
			iv := intervals[p] * lambda
			n := countVersions(horizon, pages[p].FirstPublish, iv, 1)
			for k := 1; k <= n; k++ {
				versions = append(versions, pv{page: p, time: pages[p].FirstPublish + float64(k)*iv, ver: k})
			}
		}
		if len(versions) > quota {
			// Drop the latest-in-time surplus versions.
			slices.SortFunc(versions, func(a, b pv) int {
				if c := cmp.Compare(a.time, b.time); c != 0 {
					return c
				}
				return cmp.Compare(a.page, b.page)
			})
			versions = versions[:quota]
		}
		// Renumber contiguously per page in time order.
		slices.SortFunc(versions, func(a, b pv) int {
			if c := cmp.Compare(a.page, b.page); c != 0 {
				return c
			}
			return cmp.Compare(a.time, b.time)
		})
		ver := 0
		for i, v := range versions {
			if i == 0 || versions[i-1].page != v.page {
				ver = 1
			}
			pubs = append(pubs, Publication{Time: v.time, Page: int32(v.page), Version: int32(ver)})
			pages[v.page].Versions = ver + 1
			ver++
		}
	}

	slices.SortFunc(pubs, func(a, b Publication) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Page, b.Page); c != 0 {
			return c
		}
		return cmp.Compare(a.Version, b.Version)
	})
	return pubs, nil
}
