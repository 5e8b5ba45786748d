package match

import (
	"cmp"
	"fmt"
	"hash/maphash"
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
// and within an event, and a third of them repeating a live
// subscription's proxy and terms, so aggregates gain members), with
// Unsubscribe and Restore interleaved, AppendMatchGroups agrees with a
// naive evaluation over every live subscription: the same
// subscriptions, the same fS per proxy and one group per predicate, and
// AppendMatchRefs is its flattening. The index's shortcuts — candidates
// from posting lists, topic-only matches unverified, one record per
// predicate — must not change the answer.
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
				if rng.Intn(3) == 0 && len(live) > 0 {
					sub = duplicateOf(rng, live)
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
				id := randomLiveID(rng, live)
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

// randomLiveID picks one live subscription ID.
func randomLiveID(rng *rand.Rand, live map[int64]Subscription) int64 {
	ids := make([]int64, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids[rng.Intn(len(ids))]
}

// duplicateOf returns a new subscription with a live one's proxy and
// terms, in freshly allocated slices and strings, as a duplicate
// decoded off the wire has.
func duplicateOf(rng *rand.Rand, live map[int64]Subscription) Subscription {
	src := live[randomLiveID(rng, live)]
	clone := func(terms []string) []string {
		var out []string
		for _, s := range terms {
			out = append(out, strings.Clone(s))
		}
		return out
	}
	return Subscription{Proxy: src.Proxy, Topics: clone(src.Topics), Keywords: clone(src.Keywords)}
}

func checkAgainstBruteForce(t *testing.T, seed int64, step int, e *Engine[struct{}], live map[int64]Subscription, ev Event) {
	t.Helper()
	var wantIDs []int64
	wantCounts := map[int]int{}
	for id, sub := range live {
		if naiveMatches(sub, ev) {
			wantIDs = append(wantIDs, id)
			wantCounts[sub.Proxy]++
		}
	}
	slices.Sort(wantIDs)
	// Each proxy's fS, the sum of its groups' N, is its number of
	// matching subscriptions, and every one of them is returned once.
	ids, counts := matched(e, ev)
	if !reflect.DeepEqual(counts, wantCounts) {
		t.Fatalf("seed %d step %d: per-proxy counts of AppendMatchGroups(%v) = %v, want %v", seed, step, ev, counts, wantCounts)
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	if !slices.Equal(sorted, wantIDs) {
		t.Fatalf("seed %d step %d: AppendMatchGroups(%v) IDs %v, want those of %v", seed, step, ev, ids, wantIDs)
	}
	// The groups: one per matched predicate, of its proxy, each group's
	// IDs ascending and its N the number of live subscriptions with that
	// predicate. AppendMatchRefs is the same walk, flattened.
	groups, members := e.AppendMatchGroups(nil, nil, ev)
	gids := memberIDs(members)
	var wantRefs []MatchRef
	seen := map[string]bool{}
	off := 0
	for _, g := range groups {
		if off+g.N > len(gids) {
			t.Fatalf("seed %d step %d: groups cover more than the %d IDs returned", seed, step, len(gids))
		}
		run := gids[off : off+g.N]
		off += g.N
		first := live[run[0]]
		key := predicateKey(first)
		if seen[key] {
			t.Fatalf("seed %d step %d: predicate %s matched in two groups", seed, step, key)
		}
		seen[key] = true
		members := 0
		for _, sub := range live {
			if predicateKey(sub) == key {
				members++
			}
		}
		if g.Proxy != first.Proxy || g.N != members || !slices.IsSorted(run) {
			t.Fatalf("seed %d step %d: group %+v with IDs %v; want proxy %d, %d members ascending", seed, step, g, run, first.Proxy, members)
		}
		for _, id := range run {
			if sub, ok := live[id]; !ok || predicateKey(sub) != key {
				t.Fatalf("seed %d step %d: group of %s holds subscription %d (%+v)", seed, step, key, id, sub)
			}
			wantRefs = append(wantRefs, MatchRef{ID: id, Proxy: g.Proxy})
		}
	}
	if off != len(gids) {
		t.Fatalf("seed %d step %d: groups cover %d of %d IDs", seed, step, off, len(gids))
	}
	if got := e.AppendMatchRefs(nil, ev); !reflect.DeepEqual(got, wantRefs) {
		t.Fatalf("seed %d step %d: AppendMatchRefs(%v) = %v, want the flattened groups %v", seed, step, ev, got, wantRefs)
	}
}

// memberIDs returns the IDs of members, in order.
func memberIDs[V any](members []Member[V]) []int64 {
	ids := make([]int64, len(members))
	for i, m := range members {
		ids[i] = m.ID
	}
	return ids
}

// predicateKey renders a subscription's proxy, topics and keywords, the
// predicate its aggregate is keyed by.
func predicateKey(sub Subscription) string {
	return fmt.Sprintf("%d %q %q", sub.Proxy, sub.Topics, sub.Keywords)
}

// TestPostingListCensus: over random subscribes (a third of them
// repeating a live subscription's predicate), unsubscribes and
// restores, the engine holds one aggregate per live predicate, whose
// multiplicity and members are exactly the predicate's live
// subscriptions; each aggregate sits in exactly the posting lists of
// its access terms (its first keyword when it has keywords, else each
// of its topics), once per list; no aggregate of a predicate without
// live subscriptions remains indexed or posted; and no term keeps an
// empty list. The census runs twice: with the real predicate hash and
// with one under which every predicate collides.
func TestPostingListCensus(t *testing.T) {
	census := func(seeds int64) {
		for seed := int64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			live := map[int64]Subscription{}
			var removed []Subscription
			for step := 0; step < 200; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					sub := Subscription{Proxy: rng.Intn(4), Topics: randomTerms(rng, "t", 5, 3), Keywords: randomTerms(rng, "k", 5, 3)}
					if rng.Intn(3) == 0 && len(live) > 0 {
						sub = duplicateOf(rng, live)
					}
					id, err := e.Subscribe(sub)
					if err != nil {
						continue // empty subscription
					}
					sub.ID = id
					live[id] = sub
				case op < 8 && len(live) > 0:
					id := randomLiveID(rng, live)
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
				checkCensus(t, seed, step, e, live)
			}
		}
	}
	census(20)
	defer func(h func(maphash.Seed, int, []string, []string) uint32) { predicateHash = h }(predicateHash)
	predicateHash = func(maphash.Seed, int, []string, []string) uint32 { return 7 }
	census(5)
}

func checkCensus(t *testing.T, seed int64, step int, e *Engine[struct{}], live map[int64]Subscription) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
	}
	members := map[string][]int64{} // predicate → its live IDs
	for id, sub := range live {
		k := predicateKey(sub)
		members[k] = append(members[k], id)
	}
	// Every aggregate the engine can reach, by ID, by predicate hash or
	// through a posting list.
	aggs := map[*aggregate[struct{}]]bool{}
	for i := 0; i < e.ids.Slots(); i++ {
		if _, a, live := e.ids.At(i); live {
			aggs[a] = true
		}
	}
	for _, a := range e.preds.slots {
		if a != nil {
			aggs[a] = true
		}
	}
	for _, m := range []map[string][]*aggregate[struct{}]{e.byTopic, e.byKeyword} {
		for _, l := range m {
			for _, a := range l {
				aggs[a] = true
			}
		}
	}
	if len(aggs) != len(members) {
		fail("%d aggregates for %d live predicates", len(aggs), len(members))
	}
	wantTopic, wantKeyword := map[string][]*aggregate[struct{}]{}, map[string][]*aggregate[struct{}]{}
	for a := range aggs {
		pred := Subscription{Proxy: a.proxy, Topics: a.topics(), Keywords: a.keywords()}
		k := predicateKey(pred)
		want := members[k]
		slices.Sort(want)
		if got := memberIDs(a.appendMembers(nil)); a.size() != len(want) || !slices.Equal(got, want) {
			fail("aggregate %s has multiplicity %d and members %v, want %v", k, a.size(), got, want)
		}
		for _, id := range want {
			if got, ok := e.ids.Get(id); !ok || got != a {
				fail("subscription %d of %s is not indexed to its aggregate", id, k)
			}
		}
		h := predicateHash(e.seed, a.proxy, a.topics(), a.keywords())
		if a.hash != h || e.preds.find(h, a.proxy, a.topics(), a.keywords()) != a {
			fail("aggregate %s is not found by its predicate", k)
		}
		if len(pred.Keywords) > 0 {
			wantKeyword[pred.Keywords[0]] = append(wantKeyword[pred.Keywords[0]], a)
			continue
		}
		for _, term := range pred.Topics {
			if !slices.Contains(wantTopic[term], a) {
				wantTopic[term] = append(wantTopic[term], a)
			}
		}
	}
	if e.ids.Len() != len(live) {
		fail("%d subscriptions indexed, want %d", e.ids.Len(), len(live))
	}
	if e.preds.n != len(aggs) || 4*e.preds.n > 3*len(e.preds.slots) {
		fail("predicate table counts %d aggregates in %d slots, want %d at most three quarters full", e.preds.n, len(e.preds.slots), len(aggs))
	}
	checkPostings(fail, "topic", e.byTopic, wantTopic)
	checkPostings(fail, "keyword", e.byKeyword, wantKeyword)
}

func checkPostings(fail func(string, ...any), kind string, got, want map[string][]*aggregate[struct{}]) {
	if len(got) != len(want) {
		fail("%d %s posting lists, want %d", len(got), kind, len(want))
	}
	for term, list := range want {
		slices.SortFunc(list, func(x, y *aggregate[struct{}]) int { return cmp.Compare(x.seq, y.seq) })
		if !slices.Equal(got[term], list) {
			fail("%s list %q holds %d aggregates, want %d", kind, term, len(got[term]), len(list))
		}
	}
}

// selectiveShape builds the matching shape of perfbench's live_news
// workload: 19 500 subscriptions, each on one of 600 page keywords and
// its page's section topic (16 sections), with 437 of them on the page
// the returned event announces. Every subscription gets its own copies
// of its strings, as strings decoded off the wire are, so a compare
// cannot short-circuit on a shared pointer.
func selectiveShape(tb testing.TB) (*Engine[struct{}], Event) {
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
	if _, members := e.AppendMatchGroups(nil, nil, ev); len(members) != hot {
		tb.Fatalf("selective event matched %d, want %d", len(members), hot)
	}
	return e, ev
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestAppendMatchRefsZeroAlloc pins flattening the selective shape's
// match into a reused slice at zero allocations.
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

// TestAppendMatchGroupsZeroAlloc pins the publish path's grouped match
// of the selective shape into reused slices at zero allocations.
func TestAppendMatchGroupsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	e, ev := selectiveShape(t)
	groups, ids := e.AppendMatchGroups(nil, nil, ev)
	if allocs := testing.AllocsPerRun(50, func() { groups, ids = e.AppendMatchGroups(groups[:0], ids[:0], ev) }); allocs != 0 {
		t.Errorf("AppendMatchGroups allocates %.1f times per event, want 0", allocs)
	}
}

// BenchmarkAppendMatchGroups measures the publish path's grouped match
// of one event. "topic" and "topic+keyword" hold 1 024 subscriptions
// that all share its topic, 128 on each of 8 proxies, so 8 aggregates:
// topic-only ones (matched straight from the posting list) and
// topic+keyword ones (reached through their first keyword and verified
// against the event's other terms). "selective" is live_news's shape
// (selectiveShape): the event's 437 matched subscriptions fall into 98
// aggregates, one per proxy that holds any of them. The counts are
// pinned, so a layout that loses or splits an aggregate fails the bench.
func BenchmarkAppendMatchGroups(b *testing.B) {
	shared := func(keywords []string) func(testing.TB) (*Engine[struct{}], Event) {
		return func(tb testing.TB) (*Engine[struct{}], Event) {
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
		name                   string
		build                  func(testing.TB) (*Engine[struct{}], Event)
		subs, groups, nProxies int
	}{
		{"topic", shared(nil), 1024, 8, 8},
		{"topic+keyword", shared([]string{"k1", "k2"}), 1024, 8, 8},
		{"selective", selectiveShape, 437, 98, 98},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, ev := bc.build(b)
			groups, members := e.AppendMatchGroups(nil, nil, ev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				groups, members = e.AppendMatchGroups(groups[:0], members[:0], ev)
			}
			proxies := map[int]bool{}
			for _, g := range groups {
				proxies[g.Proxy] = true
			}
			if len(members) != bc.subs || len(groups) != bc.groups || len(proxies) != bc.nProxies {
				b.Fatalf("matched %d subscriptions in %d aggregates of %d proxies, want %d in %d of %d",
					len(members), len(groups), len(proxies), bc.subs, bc.groups, bc.nProxies)
			}
		})
	}
}
