package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// BenchmarkAppendMatchRefs measures matching one event against 1 024
// subscriptions that all share its topic: topic-only subscriptions
// (matched straight from the posting list), and topic+keyword ones
// (each candidate verified against the event's keywords).
func BenchmarkAppendMatchRefs(b *testing.B) {
	for _, bc := range []struct {
		name     string
		keywords []string
	}{
		{"topic", nil},
		{"topic+keyword", []string{"k1", "k2"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < 1024; i++ {
				if _, err := e.Subscribe(Subscription{Proxy: i % 8, Topics: []string{"news"}, Keywords: bc.keywords}); err != nil {
					b.Fatal(err)
				}
			}
			ev := Event{ID: "p", Topics: []string{"news"}, Keywords: []string{"k0", "k1", "k2", "k3"}}
			refs := e.AppendMatchRefs(nil, ev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refs = e.AppendMatchRefs(refs[:0], ev)
			}
			if len(refs) != 1024 {
				b.Fatalf("matched %d, want 1024", len(refs))
			}
		})
	}
}
