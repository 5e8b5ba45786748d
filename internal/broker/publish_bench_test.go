package broker

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pubsubcd/internal/match"
)

// BenchmarkPublishSelective measures the broker's publish path on
// live_news's matching shape, the one behind match's
// BenchmarkAppendMatchGroups: 19 500 subscriptions of 100 proxies, each
// on one of 600 page keywords and its page's section topic, with the
// published page matching 437 of them in 98 aggregates. Each proxy's
// subscriptions share one connection, whose notify lane has no flusher
// and drops its oldest run when full, so the bench covers matching,
// resolving the matches to their delivery targets and grouping them
// into one run per connection, with no socket and no encoding.
func BenchmarkPublishSelective(b *testing.B) {
	const subs, pages, sections, hot, proxies = 19500, 600, 16, 437, 100
	page := make([]int, subs)
	for i := range page {
		if i >= hot {
			page[i] = 1 + (i-hot)%(pages-1)
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(page), func(i, j int) { page[i], page[j] = page[j], page[i] })
	brk := New()
	s := &Server{}
	conns := make([]*connNotifier, proxies)
	for i, cw := range flusherlessWriters(proxies, true, SlowConsumerDropOldest, 64) {
		conns[i] = &connNotifier{s: s, cw: cw}
	}
	for i, p := range page {
		sub := match.Subscription{
			Proxy:    i % proxies,
			Topics:   []string{strings.Clone(fmt.Sprintf("section-%d", p%sections))},
			Keywords: []string{strings.Clone(fmt.Sprintf("page-%d", p))},
		}
		if _, err := brk.Subscribe(sub, conns[i%proxies]); err != nil {
			b.Fatal(err)
		}
	}
	c := Content{ID: "p0", Topics: []string{"section-0"}, Keywords: []string{"page-0"}, Body: []byte("x")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Version = i + 1
		if matched, err := brk.Publish(c); err != nil || matched != hot {
			b.Fatalf("publish matched %d (%v), want %d", matched, err, hot)
		}
	}
}
