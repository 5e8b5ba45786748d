package workload

import (
	"fmt"
	"io"
	"math"
	"sort"

	"pubsubcd/internal/stats"
)

// Analysis summarises the distributional properties of a generated
// workload, mirroring the observations §4 builds on so a workload can be
// validated against the paper's construction.
type Analysis struct {
	// Publishing stream.
	DistinctPages     int
	Publications      int
	ModifiedPages     int
	ModifiedVersions  int
	VersionsPerPage   stats.Summary
	PageSizeBytes     stats.Summary
	InterPublishHours stats.Summary

	// Request stream.
	Requests           int
	RequestAgeHours    stats.Summary
	RequestsPerPage    stats.Summary
	TopPageShare       float64
	Top10Share         float64
	UniquePairs        int
	RequestsPerPair    float64
	ServersPerPage     stats.Summary
	RequestsPerServer  stats.Summary
	UniqueBytesServer  stats.Summary
	ClassRequestShares [4]float64

	// Subscriptions.
	TotalSubscriptions  int64
	SubsOverRequests    float64
	FalsePositivePairs  int
	NotificationBacked  float64 // fraction of requests with subs > 0 at their server
	SubsPerBackedPairAv float64
}

// Analyze computes the workload analysis.
func (w *Workload) Analyze() Analysis {
	var a Analysis
	a.DistinctPages = len(w.Pages)
	a.Publications = len(w.Publications)

	versions := make([]float64, 0, len(w.Pages))
	sizes := make([]float64, 0, len(w.Pages))
	for i := range w.Pages {
		if w.Pages[i].Versions > 1 {
			a.ModifiedPages++
			a.ModifiedVersions += w.Pages[i].Versions - 1
			versions = append(versions, float64(w.Pages[i].Versions))
		}
		sizes = append(sizes, float64(w.Pages[i].Size))
	}
	a.VersionsPerPage = stats.Summarize(versions)
	a.PageSizeBytes = stats.Summarize(sizes)

	if len(w.Publications) > 1 {
		gaps := make([]float64, 0, len(w.Publications)-1)
		for i := 1; i < len(w.Publications); i++ {
			gaps = append(gaps, w.Publications[i].Time-w.Publications[i-1].Time)
		}
		a.InterPublishHours = stats.Summarize(gaps)
	}

	a.Requests = len(w.Requests)
	ages := make([]float64, 0, len(w.Requests))
	perPage := make(map[int]int)
	pairs := make(map[[2]int]int)
	serversOf := make(map[int]map[int]bool)
	classCounts := [4]int{}
	for _, r := range w.Requests {
		page, server := int(r.Page), int(r.Server)
		ages = append(ages, r.Time-w.Pages[page].FirstPublish)
		perPage[page]++
		pairs[[2]int{page, server}]++
		if serversOf[page] == nil {
			serversOf[page] = make(map[int]bool)
		}
		serversOf[page][server] = true
		classCounts[w.Pages[page].Class]++
	}
	a.RequestAgeHours = stats.Summarize(ages)
	counts := make([]float64, 0, len(perPage))
	for _, c := range perPage {
		counts = append(counts, float64(c))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(counts)))
	a.RequestsPerPage = stats.Summarize(counts)
	if len(counts) > 0 && a.Requests > 0 {
		a.TopPageShare = counts[0] / float64(a.Requests)
		top10 := 0.0
		for i := 0; i < 10 && i < len(counts); i++ {
			top10 += counts[i]
		}
		a.Top10Share = top10 / float64(a.Requests)
	}
	a.UniquePairs = len(pairs)
	if a.UniquePairs > 0 {
		a.RequestsPerPair = float64(a.Requests) / float64(a.UniquePairs)
	}
	spread := make([]float64, 0, len(serversOf))
	for _, set := range serversOf {
		spread = append(spread, float64(len(set)))
	}
	a.ServersPerPage = stats.Summarize(spread)
	reqPerServer := make([]float64, w.Config.Servers)
	for _, r := range w.Requests {
		reqPerServer[r.Server]++
	}
	a.RequestsPerServer = stats.Summarize(reqPerServer)
	ub := w.UniqueBytesPerServer()
	ubf := make([]float64, len(ub))
	for i, b := range ub {
		ubf[i] = float64(b)
	}
	a.UniqueBytesServer = stats.Summarize(ubf)
	if a.Requests > 0 {
		for c := 0; c < 4; c++ {
			a.ClassRequestShares[c] = float64(classCounts[c]) / float64(a.Requests)
		}
	}

	a.TotalSubscriptions = w.TotalSubscriptions()
	if a.Requests > 0 {
		a.SubsOverRequests = float64(a.TotalSubscriptions) / float64(a.Requests)
	}
	backed := 0
	backedPairs := 0
	var backedSubs int64
	for page, row := range w.Subscriptions {
		for server, s := range row {
			if s == 0 {
				continue
			}
			backedPairs++
			backedSubs += int64(s)
			if pairs[[2]int{page, server}] == 0 {
				a.FalsePositivePairs++
			}
		}
	}
	for pair, n := range pairs {
		if w.Subscriptions[pair[0]][pair[1]] > 0 {
			backed += n
		}
	}
	if a.Requests > 0 {
		a.NotificationBacked = float64(backed) / float64(a.Requests)
	}
	if backedPairs > 0 {
		a.SubsPerBackedPairAv = float64(backedSubs) / float64(backedPairs)
	}
	return a
}

// WriteText renders the analysis as a readable report.
func (a Analysis) WriteText(w io.Writer) error {
	p := func(format string, args ...interface{}) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("Publishing stream\n"); err != nil {
		return err
	}
	if err := p("  distinct pages        %d\n", a.DistinctPages); err != nil {
		return err
	}
	if err := p("  publications          %d (%d modified versions of %d pages)\n",
		a.Publications, a.ModifiedVersions, a.ModifiedPages); err != nil {
		return err
	}
	if err := p("  versions/modified pg  mean %.1f max %.0f\n", a.VersionsPerPage.Mean, a.VersionsPerPage.Max); err != nil {
		return err
	}
	if err := p("  page size bytes       median %.0f mean %.0f p99 %.0f\n",
		a.PageSizeBytes.Median, a.PageSizeBytes.Mean, a.PageSizeBytes.P99); err != nil {
		return err
	}
	if err := p("Request stream\n"); err != nil {
		return err
	}
	if err := p("  requests              %d\n", a.Requests); err != nil {
		return err
	}
	if err := p("  request age hours     median %.1f p90 %.1f\n", a.RequestAgeHours.Median, a.RequestAgeHours.P90); err != nil {
		return err
	}
	if err := p("  top page share        %.1f%% (top-10: %.1f%%)\n", 100*a.TopPageShare, 100*a.Top10Share); err != nil {
		return err
	}
	if err := p("  unique (page,server)  %d pairs, %.1f requests/pair\n", a.UniquePairs, a.RequestsPerPair); err != nil {
		return err
	}
	if err := p("  servers per page      median %.0f max %.0f\n", a.ServersPerPage.Median, a.ServersPerPage.Max); err != nil {
		return err
	}
	if err := p("  requests per server   median %.0f\n", a.RequestsPerServer.Median); err != nil {
		return err
	}
	if err := p("  unique bytes/server   median %.0f\n", a.UniqueBytesServer.Median); err != nil {
		return err
	}
	if err := p("  class request shares  %.2f / %.2f / %.2f / %.2f\n",
		a.ClassRequestShares[0], a.ClassRequestShares[1], a.ClassRequestShares[2], a.ClassRequestShares[3]); err != nil {
		return err
	}
	if err := p("Subscriptions\n"); err != nil {
		return err
	}
	if err := p("  total                 %d (%.2fx requests)\n", a.TotalSubscriptions, a.SubsOverRequests); err != nil {
		return err
	}
	if err := p("  false-positive pairs  %d\n", a.FalsePositivePairs); err != nil {
		return err
	}
	return p("  notification-backed   %.1f%% of requests\n", 100*a.NotificationBacked)
}

// EffectiveZipfAlpha estimates the Zipf exponent of the per-page request
// counts by least-squares on log(rank) vs log(count) over the pages with
// at least minCount requests. It returns NaN when too few points exist.
func (a Analysis) EffectiveZipfAlpha(counts []int, minCount int) float64 {
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	var xs, ys []float64
	for i, c := range sorted {
		if c < minCount {
			break
		}
		xs = append(xs, math.Log(float64(i+1)))
		ys = append(ys, math.Log(float64(c)))
	}
	if len(xs) < 3 {
		return math.NaN()
	}
	// Least squares slope.
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	n := float64(len(xs))
	denom := n*sxx - sx*sx
	if denom == 0 {
		return math.NaN()
	}
	slope := (n*sxy - sx*sy) / denom
	return -slope
}
