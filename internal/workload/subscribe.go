package workload

import (
	"fmt"
	"math"

	"pubsubcd/internal/match"
	"pubsubcd/internal/stats"
)

// minSQPrime guards the division in eq. 7 when SQ <= 0.5 lets SQ' get
// arbitrarily close to zero; smaller draws are rejected and resampled.
const minSQPrime = 0.02

// generateSubscriptions derives per-(page, server) subscription counts
// from the request stream per §4.3 (eq. 7): S = P / SQ', with SQ' drawn in
// [2*SQ-1, 1] when SQ > 0.5 and in [0, 2*SQ] otherwise. Subscriptions
// never fall below the request count (a subscriber reads a page at most
// once), so S >= P.
//
// Imperfect subscriptions mispredict in two ways. First, counts inflate
// (S > P): subscribers who never read the page. Second — the part that
// actually misleads push-time placement — some of that phantom interest
// sits at servers whose users never request the page at all. A fraction
// (1 - SQ) of each pair's excess subscriptions is therefore spilled to
// uniformly random other servers, producing false-positive pushes. At
// SQ = 1 there is no excess and no spill.
//
// When NotificationDrivenFrac < 1, each (page, server) pair is
// notification-driven with that probability; other pairs get zero
// subscriptions and model spontaneous (non-notified) requests — the
// paper's stated future-work scenario.
//
// The matrix first holds the request counts P. Each row is then
// rewritten from a copy of its counts, so spill into a server later in
// the row does not change that server's P. All rows share one backing
// array.
func generateSubscriptions(cfg Config, pages []Page, requests []Request, g *stats.RNG) ([][]int32, error) {
	servers := cfg.Servers
	cells := make([]int32, len(pages)*servers)
	subs := make([][]int32, len(pages))
	for i := range subs {
		subs[i] = cells[i*servers : (i+1)*servers : (i+1)*servers]
	}
	for _, r := range requests {
		subs[r.Page][r.Server]++
	}
	reqCount := make([]int32, servers)
	for i := range subs {
		copy(reqCount, subs[i])
		clear(subs[i])
		for j, p := range reqCount {
			if p == 0 {
				continue
			}
			if cfg.NotificationDrivenFrac < 1 && g.Float64() >= cfg.NotificationDrivenFrac {
				continue
			}
			sqPrime := sampleSQPrime(cfg.SQ, g)
			s := int32(math.Round(float64(p) / sqPrime))
			if s < p {
				s = p
			}
			spill := int32(math.Round(float64(s-p) * (1 - cfg.SQ)))
			subs[i][j] += s - spill
			if spill > 0 {
				// The misplaced interest clumps at one other server (a
				// community of subscribers who never read the page), so
				// it can genuinely outrank true interest there.
				subs[i][g.Intn(servers)] += spill
			}
		}
	}
	return subs, nil
}

// sampleSQPrime draws SQ' per eq. 7.
func sampleSQPrime(sq float64, g *stats.RNG) float64 {
	if sq >= 1 {
		return 1
	}
	if sq > 0.5 {
		return g.UniformRange(2*sq-1, 1)
	}
	for {
		v := g.UniformRange(0, 2*sq)
		if v >= minSQPrime {
			return v
		}
	}
}

// SubscriptionObjects materialises the aggregated counts as concrete
// match.Subscription values over per-page topics, so the live matching
// engine reproduces exactly the counts the simulator uses. Intended for
// scaled-down workloads: the object count equals the total number of
// subscriptions.
func (w *Workload) SubscriptionObjects() []match.Subscription {
	var out []match.Subscription
	for pageID := range w.Pages {
		for server, n := range w.Subscriptions[pageID] {
			for k := int32(0); k < n; k++ {
				out = append(out, match.Subscription{Proxy: server, Topics: []string{PageTopic(pageID)}})
			}
		}
	}
	return out
}

// PageTopic returns the topic string the generated subscriptions use for a
// page.
func PageTopic(pageID int) string { return fmt.Sprintf("page/%d", pageID) }

// PageEvent returns the match.Event announcing a page, carrying its topic.
func PageEvent(pageID int) match.Event {
	return match.Event{ID: fmt.Sprintf("%d", pageID), Topics: []string{PageTopic(pageID)}}
}
