package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// naiveMatches evaluates the OR-topics/AND-keywords semantics directly:
// at least one of the subscription's topics (if it lists any) is on the
// event, and every one of its keywords is.
func naiveMatches(sub Subscription, ev Event) bool {
	if len(sub.Topics) > 0 && !slices.ContainsFunc(sub.Topics, func(t string) bool { return slices.Contains(ev.Topics, t) }) {
		return false
	}
	for _, k := range sub.Keywords {
		if !slices.Contains(ev.Keywords, k) {
			return false
		}
	}
	return true
}

// randomTerms draws up to max terms from a small vocabulary, repeats
// allowed, so terms collide across subscriptions and events.
func randomTerms(rng *rand.Rand, prefix string, vocab, max int) []string {
	out := make([]string, rng.Intn(max+1))
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, rng.Intn(vocab))
	}
	return out
}

// TestMatchEqualsBruteForce: over random topic-only, keyword-only and
// topic+keyword subscriptions (terms repeated within a subscription
// and within an event), with Unsubscribe and Restore interleaved,
// AppendMatchRefs, Match and MatchCounts each agree with a naive
// evaluation over every live subscription. The index's shortcuts —
// candidates from posting lists, topic-only matches unverified — must
// not change the answer.
func TestMatchEqualsBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		live := map[int64]Subscription{}
		var removed []Subscription
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				sub := Subscription{Proxy: rng.Intn(4)}
				switch rng.Intn(3) {
				case 0:
					sub.Topics = randomTerms(rng, "t", 6, 3)
				case 1:
					sub.Keywords = randomTerms(rng, "k", 6, 3)
				default:
					sub.Topics = randomTerms(rng, "t", 6, 3)
					sub.Keywords = randomTerms(rng, "k", 6, 3)
				}
				id, err := e.Subscribe(sub)
				if len(sub.Topics) == 0 && len(sub.Keywords) == 0 {
					if err == nil {
						t.Fatalf("seed %d: empty subscription accepted", seed)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				sub.ID = id
				live[id] = sub
			case op < 7 && len(live) > 0:
				ids := make([]int64, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				slices.Sort(ids)
				id := ids[rng.Intn(len(ids))]
				if err := e.Unsubscribe(id); err != nil {
					t.Fatal(err)
				}
				removed = append(removed, live[id])
				delete(live, id)
			case op < 8 && len(removed) > 0:
				i := rng.Intn(len(removed))
				sub := removed[i]
				removed = slices.Delete(removed, i, i+1)
				if err := e.Restore(sub); err != nil {
					t.Fatal(err)
				}
				live[sub.ID] = sub
			default:
				ev := Event{ID: "p", Topics: randomTerms(rng, "t", 6, 3), Keywords: randomTerms(rng, "k", 6, 4)}
				checkAgainstBruteForce(t, seed, step, e, live, ev)
			}
		}
	}
}

func checkAgainstBruteForce(t *testing.T, seed int64, step int, e *Engine, live map[int64]Subscription, ev Event) {
	t.Helper()
	var wantRefs []MatchRef
	var wantSubs []Subscription
	wantCounts := map[int]int{}
	ids := make([]int64, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if sub := live[id]; naiveMatches(sub, ev) {
			wantRefs = append(wantRefs, MatchRef{ID: id, Proxy: sub.Proxy})
			wantSubs = append(wantSubs, sub)
			wantCounts[sub.Proxy]++
		}
	}
	if got := e.AppendMatchRefs(nil, ev); !reflect.DeepEqual(got, wantRefs) {
		t.Fatalf("seed %d step %d: AppendMatchRefs(%v) = %v, want %v", seed, step, ev, got, wantRefs)
	}
	got := e.Match(ev)
	if len(got) != len(wantSubs) {
		t.Fatalf("seed %d step %d: Match(%v) returned %d subscriptions, want %d", seed, step, ev, len(got), len(wantSubs))
	}
	for i := range got {
		w := wantSubs[i]
		if got[i].ID != w.ID || got[i].Proxy != w.Proxy || !slices.Equal(got[i].Topics, w.Topics) || !slices.Equal(got[i].Keywords, w.Keywords) {
			t.Fatalf("seed %d step %d: Match(%v)[%d] = %+v, want %+v", seed, step, ev, i, got[i], w)
		}
	}
	if got := e.MatchCounts(ev); !reflect.DeepEqual(got, wantCounts) {
		t.Fatalf("seed %d step %d: MatchCounts(%v) = %v, want %v", seed, step, ev, got, wantCounts)
	}
}

// TestPostingListCensus: over random subscribes, unsubscribes and
// restores, each live subscription sits in exactly the posting lists
// of its access terms (its first keyword when it has keywords, else
// each of its topics), no removed subscription remains in any list,
// and no term keeps an empty list.
func TestPostingListCensus(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		live := map[int64]Subscription{}
		var removed []Subscription
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				sub := Subscription{Proxy: rng.Intn(4), Topics: randomTerms(rng, "t", 5, 3), Keywords: randomTerms(rng, "k", 5, 3)}
				id, err := e.Subscribe(sub)
				if err != nil {
					continue // empty subscription
				}
				sub.ID = id
				live[id] = sub
			case op < 8 && len(live) > 0:
				ids := make([]int64, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				slices.Sort(ids)
				id := ids[rng.Intn(len(ids))]
				if err := e.Unsubscribe(id); err != nil {
					t.Fatal(err)
				}
				removed = append(removed, live[id])
				delete(live, id)
			case len(removed) > 0:
				i := rng.Intn(len(removed))
				sub := removed[i]
				removed = slices.Delete(removed, i, i+1)
				if err := e.Restore(sub); err != nil {
					t.Fatal(err)
				}
				live[sub.ID] = sub
			}
			wantTopic, wantKeyword := map[string][]int64{}, map[string][]int64{}
			for id, sub := range live {
				if len(sub.Keywords) > 0 {
					wantKeyword[sub.Keywords[0]] = append(wantKeyword[sub.Keywords[0]], id)
					continue
				}
				for _, term := range sub.Topics {
					if !slices.Contains(wantTopic[term], id) {
						wantTopic[term] = append(wantTopic[term], id)
					}
				}
			}
			checkCensus(t, seed, step, "topic", e.byTopic, wantTopic)
			checkCensus(t, seed, step, "keyword", e.byKeyword, wantKeyword)
		}
	}
}

func checkCensus(t *testing.T, seed int64, step int, kind string, got map[string][]*Subscription, want map[string][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d step %d: %d %s posting lists, want %d", seed, step, len(got), kind, len(want))
	}
	for term, ids := range want {
		slices.Sort(ids)
		list := got[term]
		gotIDs := make([]int64, len(list))
		for i, sub := range list {
			gotIDs[i] = sub.ID
		}
		if !slices.Equal(gotIDs, ids) {
			t.Fatalf("seed %d step %d: %s list %q = %v, want %v", seed, step, kind, term, gotIDs, ids)
		}
	}
}

// selectiveShape builds the matching shape of perfbench's live_news
// workload: 19 500 subscriptions, each on one of 600 page keywords and
// its page's section topic (16 sections), with 437 of them on the page
// the returned event announces. Every subscription gets its own copies
// of its strings, as strings decoded off the wire are, so a compare
// cannot short-circuit on a shared pointer.
func selectiveShape(tb testing.TB) (*Engine, Event) {
	tb.Helper()
	const subs, pages, sections, hot = 19500, 600, 16, 437
	page := make([]int, subs)
	for i := range page {
		if i >= hot {
			page[i] = 1 + (i-hot)%(pages-1)
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(page), func(i, j int) { page[i], page[j] = page[j], page[i] })
	e := NewEngine()
	for i, p := range page {
		topic := strings.Clone(fmt.Sprintf("section-%d", p%sections))
		keyword := strings.Clone(fmt.Sprintf("page-%d", p))
		if _, err := e.Subscribe(Subscription{Proxy: i % 100, Topics: []string{topic}, Keywords: []string{keyword}}); err != nil {
			tb.Fatal(err)
		}
	}
	ev := Event{ID: "p0", Topics: []string{strings.Clone("section-0")}, Keywords: []string{strings.Clone("page-0")}}
	if n := len(e.AppendMatchRefs(nil, ev)); n != hot {
		tb.Fatalf("selective event matched %d, want %d", n, hot)
	}
	return e, ev
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestAppendMatchRefsZeroAlloc pins matching the selective shape into a
// reused slice at zero allocations.
func TestAppendMatchRefsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	e, ev := selectiveShape(t)
	refs := e.AppendMatchRefs(nil, ev)
	if allocs := testing.AllocsPerRun(50, func() { refs = e.AppendMatchRefs(refs[:0], ev) }); allocs != 0 {
		t.Errorf("AppendMatchRefs allocates %.1f times per event, want 0", allocs)
	}
}

// BenchmarkAppendMatchRefs measures matching one event. "topic" and
// "topic+keyword" hold 1 024 subscriptions that all share its topic:
// topic-only ones (matched straight from the posting list) and
// topic+keyword ones (reached through their first keyword and verified
// against the event's other terms). "selective" is live_news's shape
// (selectiveShape): 437 matches among 19 500 subscriptions.
func BenchmarkAppendMatchRefs(b *testing.B) {
	shared := func(keywords []string) func(testing.TB) (*Engine, Event) {
		return func(tb testing.TB) (*Engine, Event) {
			e := NewEngine()
			for i := 0; i < 1024; i++ {
				if _, err := e.Subscribe(Subscription{Proxy: i % 8, Topics: []string{"news"}, Keywords: keywords}); err != nil {
					tb.Fatal(err)
				}
			}
			return e, Event{ID: "p", Topics: []string{"news"}, Keywords: []string{"k0", "k1", "k2", "k3"}}
		}
	}
	for _, bc := range []struct {
		name  string
		build func(testing.TB) (*Engine, Event)
		want  int
	}{
		{"topic", shared(nil), 1024},
		{"topic+keyword", shared([]string{"k1", "k2"}), 1024},
		{"selective", selectiveShape, 437},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, ev := bc.build(b)
			refs := e.AppendMatchRefs(nil, ev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refs = e.AppendMatchRefs(refs[:0], ev)
			}
			if len(refs) != bc.want {
				b.Fatalf("matched %d, want %d", len(refs), bc.want)
			}
		})
	}
}
