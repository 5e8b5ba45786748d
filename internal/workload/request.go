package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pubsubcd/internal/stats"
)

// Request is one entry of the request stream: at Time, a user behind proxy
// Server asks for Page. An entry is 16 bytes
// (TestTraceRecordsAreSixteenBytes).
type Request struct {
	Time   float64
	Page   int32
	Server int32
}

// ageDistByClass are the Lomax age distributions that place request times
// after publication, one per popularity class. Higher gamma and smaller
// scale concentrate requests on fresh pages: class 0 (hottest) decays
// fastest, matching the paper's observation that the more popular a page,
// the stronger the negative correlation between access probability and
// age — while the widening tails spread unpopular pages' few re-references
// across days, the regime where only subscription information can keep a
// page cached until its next use.
var ageDistByClass = [4]stats.Lomax{
	{Scale: 6, Gamma: 1.1},
	{Scale: 16, Gamma: 0.5},
	{Scale: 36, Gamma: 0.3},
	{Scale: 48, Gamma: 0.2},
}

// assignPopularity apportions the total request volume across pages and
// stamps ranks and classes. Popularity is day-local: the pages first
// published on each day form a cohort with its own Zipf(alpha) popularity
// distribution over a request budget proportional to the cohort size.
// This reflects the observation underlying the workload (Padmanabhan &
// Qiu) that the set of popular news pages turns over almost completely
// from day to day: every day has its own headline stories. Within a
// cohort, ranks are assigned randomly (popularity is independent of the
// exact publishing time and of page size, §4.2).
//
// Page.Rank is the global 1-based rank by request count; Page.Class
// groups pages so the request rate drops about one order of magnitude
// from one class to the next.
func assignPopularity(cfg Config, pages []Page, g *stats.RNG) ([]int, error) {
	// Group pages into day cohorts.
	cohorts := make(map[int][]int)
	days := make([]int, 0, cfg.Days)
	for i := range pages {
		d := int(pages[i].FirstPublish / HoursPerDay)
		if _, ok := cohorts[d]; !ok {
			days = append(days, d)
		}
		cohorts[d] = append(cohorts[d], i)
	}
	slices.Sort(days)

	counts := make([]int, len(pages))
	assigned := 0
	for idx, d := range days {
		cohort := cohorts[d]
		budget := cfg.TotalRequests * len(cohort) / len(pages)
		if idx == len(days)-1 {
			budget = cfg.TotalRequests - assigned
		}
		assigned += budget
		z, err := stats.NewZipf(len(cohort), cfg.Alpha)
		if err != nil {
			return nil, fmt.Errorf("workload: cohort zipf: %w", err)
		}
		byRank, err := z.Counts(budget)
		if err != nil {
			return nil, fmt.Errorf("workload: cohort counts: %w", err)
		}
		perm := g.Perm(len(cohort))
		for r, pi := range perm {
			counts[cohort[pi]] = byRank[r]
		}
	}

	// Global ranks by descending count; classes by rate decade.
	order := make([]int, len(pages))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(counts[b], counts[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	maxCount := counts[order[0]]
	for rank, pi := range order {
		pages[pi].Rank = rank + 1
		class := 3
		if counts[pi] > 0 && maxCount > 0 {
			class = int(math.Floor(math.Log10(float64(maxCount) / float64(counts[pi]))))
		}
		if class < 0 {
			class = 0
		}
		if class > 3 {
			class = 3
		}
		pages[pi].Class = class
	}
	return counts, nil
}

// compareRequests is the request stream's order, defined once for the
// generator and DeriveClosedLoop: ascending time, then page, then
// server. It is a total order on distinct requests, so every sort by it
// yields the same stream.
func compareRequests(a, b Request) int {
	switch {
	case a.Time < b.Time:
		return -1
	case a.Time > b.Time:
		return 1
	case a.Page != b.Page:
		return cmp.Compare(a.Page, b.Page)
	}
	return cmp.Compare(a.Server, b.Server)
}

// requestsPerBucket is the mean bucket size of sortRequests' counting
// pass. At eight, most buckets sort by insertion, and the paper-scale
// stream sorts in about a third of the time that hour-wide buckets take
// (10.5 against 29 ms on a 2-core Xeon).
const requestsPerBucket = 8

// sortRequests returns requests in compareRequests order: the result of
// one global sort, computed more cheaply. A stable counting pass places
// each request in one of len(requests)/requestsPerBucket equal slices of
// [0, horizon), and each bucket is then sorted on its own. A request's
// bucket never decreases with its time, so the buckets' concatenation is
// in order. The input is left as it was.
func sortRequests(requests []Request, horizon float64) []Request {
	buckets := max(len(requests)/requestsPerBucket, 1)
	perHour := float64(buckets) / horizon
	bucketOf := func(t float64) int { return min(int(t*perHour), buckets-1) }
	starts := make([]int, buckets+1)
	for _, r := range requests {
		starts[bucketOf(r.Time)+1]++
	}
	for b := 1; b <= buckets; b++ {
		starts[b] += starts[b-1]
	}
	next := slices.Clone(starts[:buckets])
	out := make([]Request, len(requests))
	for _, r := range requests {
		b := bucketOf(r.Time)
		out[next[b]] = r
		next[b]++
	}
	for b := 0; b < buckets; b++ {
		slices.SortFunc(out[starts[b]:starts[b+1]], compareRequests)
	}
	return out
}

// generateRequests builds the request stream from per-page request
// counts, in compareRequests order.
func generateRequests(cfg Config, pages []Page, counts []int, g *stats.RNG) ([]Request, error) {
	horizon := cfg.Horizon()
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	times := make([]float64, maxCount)
	servers := make([]int, maxCount)
	pools := newServerPools(cfg.Servers)
	unsorted := make([]Request, 0, cfg.TotalRequests)
	for pageID, count := range counts {
		if count == 0 {
			continue
		}
		p := &pages[pageID]
		requestTimes(p, times[:count], horizon, g)
		pools.assign(cfg, maxCount, times[:count], servers[:count], g)
		for i, t := range times[:count] {
			unsorted = append(unsorted, Request{Time: t, Page: int32(pageID), Server: int32(servers[i])})
		}
	}
	return sortRequests(unsorted, horizon), nil
}

// requestTimes fills times with a page's request times, ascending. Each
// request arrives at FirstPublish plus a truncated-Lomax age whose shape
// depends on the page's popularity class.
func requestTimes(p *Page, times []float64, horizon float64, g *stats.RNG) {
	remaining := horizon - p.FirstPublish
	if remaining <= 1e-6 {
		remaining = 1e-6
	}
	dist := ageDistByClass[p.Class]
	dist.Max = remaining
	dist.Fill(g, times)
	for i, age := range times {
		t := p.FirstPublish + age
		if t >= horizon {
			t = horizon - 1e-9
		}
		times[i] = t
	}
	slices.Sort(times)
}

// serverPools is the scratch of §4.2's server assignment, reused across
// pages and days, so drawing and rotating a pool allocate nothing.
type serverPools struct {
	perm    []int  // a permutation, drawn as stats.RNG.Perm draws it
	pool    []int  // the current pool
	next    []int  // the pool a rotation builds
	outside []int  // the servers outside the pool
	inPool  []bool // membership marks, all false between rotations
}

func newServerPools(servers int) *serverPools {
	return &serverPools{
		perm:    make([]int, servers),
		pool:    make([]int, 0, servers),
		next:    make([]int, 0, servers),
		outside: make([]int, 0, servers),
		inPool:  make([]bool, servers),
	}
}

// assign implements §4.2 "Splitting Requests by Server": it fills
// servers[i] with the server of the request at times[i]. The pool size
// for a page of len(times) requests is
// Si = ceil(Servers * (Pi/Pmax)^0.5); each request day keeps
// cfg.ServerOverlap of the previous day's pool and replaces the rest
// with servers outside the pool. times must be ascending.
func (sp *serverPools) assign(cfg Config, maxCount int, times []float64, servers []int, g *stats.RNG) {
	poolSize := int(math.Ceil(float64(cfg.Servers) * math.Sqrt(float64(len(times))/float64(maxCount))))
	poolSize = min(max(poolSize, 1), cfg.Servers)
	g.PermInto(sp.perm)
	pool := append(sp.pool[:0], sp.perm[:poolSize]...)

	currentDay := int(times[0] / HoursPerDay)
	for i, t := range times {
		day := int(t / HoursPerDay)
		for currentDay < day {
			pool = sp.rotate(cfg, pool, g)
			currentDay++
		}
		servers[i] = pool[g.Intn(len(pool))]
	}
}

// rotate replaces (1 - overlap) of the pool with servers not currently
// in it, preserving the pool size. It returns the new pool and keeps
// the old one's buffer for the next rotation.
func (sp *serverPools) rotate(cfg Config, pool []int, g *stats.RNG) []int {
	keep := int(math.Round(cfg.ServerOverlap * float64(len(pool))))
	if keep > len(pool) {
		keep = len(pool)
	}
	replace := len(pool) - keep
	if replace == 0 || len(pool) == cfg.Servers {
		return pool
	}
	for _, s := range pool {
		sp.inPool[s] = true
	}
	outside := sp.outside[:0]
	for s, in := range sp.inPool {
		if !in {
			outside = append(outside, s)
		}
	}
	for _, s := range pool {
		sp.inPool[s] = false
	}
	g.Shuffle(len(outside), func(i, j int) { outside[i], outside[j] = outside[j], outside[i] })
	if replace > len(outside) {
		replace = len(outside)
	}
	perm := sp.perm[:len(pool)]
	g.PermInto(perm)
	next := sp.next[:0]
	for _, idx := range perm[:keep] {
		next = append(next, pool[idx])
	}
	next = append(next, outside[:replace]...)
	// Top up, in pool order, with the servers the rotation dropped if
	// the outside population was too small to fully rotate.
	if len(next) < len(pool) {
		kept := next[:keep]
		for _, s := range kept {
			sp.inPool[s] = true
		}
		for _, s := range pool {
			if len(next) >= len(pool) {
				break
			}
			if !sp.inPool[s] {
				next = append(next, s)
			}
		}
		for _, s := range kept {
			sp.inPool[s] = false
		}
	}
	sp.pool, sp.next = next, pool
	return next
}
