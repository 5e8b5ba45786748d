package match

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestSubscribeValidation(t *testing.T) {
	e := NewEngine()
	if _, err := e.Subscribe(Subscription{Proxy: 0}); !errors.Is(err, ErrEmptySubscription) {
		t.Errorf("empty subscription: got %v, want ErrEmptySubscription", err)
	}
	if _, err := e.Subscribe(Subscription{Proxy: -1, Topics: []string{"t"}}); err == nil {
		t.Error("negative proxy should error")
	}
	id, err := e.Subscribe(Subscription{Proxy: 2, Topics: []string{"sports"}})
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Error("Subscribe should assign a non-zero ID")
	}
}

func TestTopicMatchingIsOr(t *testing.T) {
	e := NewEngine()
	if _, err := e.Subscribe(Subscription{Proxy: 1, Topics: []string{"sports", "politics"}}); err != nil {
		t.Fatal(err)
	}
	got := e.Match(Event{ID: "p1", Topics: []string{"politics"}})
	if len(got) != 1 {
		t.Fatalf("expected 1 match, got %d", len(got))
	}
	got = e.Match(Event{ID: "p2", Topics: []string{"weather"}})
	if len(got) != 0 {
		t.Fatalf("expected 0 matches, got %d", len(got))
	}
}

func TestKeywordMatchingIsAnd(t *testing.T) {
	e := NewEngine()
	if _, err := e.Subscribe(Subscription{Proxy: 1, Keywords: []string{"election", "senate"}}); err != nil {
		t.Fatal(err)
	}
	if n := len(e.Match(Event{ID: "a", Keywords: []string{"election"}})); n != 0 {
		t.Errorf("partial keywords matched: %d", n)
	}
	if n := len(e.Match(Event{ID: "b", Keywords: []string{"senate", "election", "budget"}})); n != 1 {
		t.Errorf("full keywords should match once, got %d", n)
	}
}

func TestTopicAndKeywordConjunction(t *testing.T) {
	e := NewEngine()
	if _, err := e.Subscribe(Subscription{Proxy: 3, Topics: []string{"news"}, Keywords: []string{"go"}}); err != nil {
		t.Fatal(err)
	}
	if n := len(e.Match(Event{ID: "x", Topics: []string{"news"}})); n != 0 {
		t.Errorf("topic without keyword matched: %d", n)
	}
	if n := len(e.Match(Event{ID: "y", Keywords: []string{"go"}})); n != 0 {
		t.Errorf("keyword without topic matched: %d", n)
	}
	if n := len(e.Match(Event{ID: "z", Topics: []string{"news"}, Keywords: []string{"go"}})); n != 1 {
		t.Errorf("conjunction should match, got %d", n)
	}
}

func TestUnsubscribe(t *testing.T) {
	e := NewEngine()
	id, err := e.Subscribe(Subscription{Proxy: 0, Topics: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d, want 1", e.Len())
	}
	if err := e.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 0 {
		t.Fatalf("Len after unsubscribe = %d, want 0", e.Len())
	}
	if n := len(e.Match(Event{ID: "p", Topics: []string{"a"}})); n != 0 {
		t.Errorf("unsubscribed subscription still matches: %d", n)
	}
	if err := e.Unsubscribe(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("double unsubscribe: got %v, want ErrNotFound", err)
	}
}

func TestMatchCountsPerProxy(t *testing.T) {
	e := NewEngine()
	for proxy, n := range map[int]int{0: 3, 4: 1, 7: 2} {
		for i := 0; i < n; i++ {
			if _, err := e.Subscribe(Subscription{Proxy: proxy, Topics: []string{"page/42"}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	counts := e.MatchCounts(Event{ID: "42", Topics: []string{"page/42"}})
	want := map[int]int{0: 3, 4: 1, 7: 2}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	for p, c := range want {
		if counts[p] != c {
			t.Errorf("proxy %d count = %d, want %d", p, counts[p], c)
		}
	}
}

func TestMatchReturnsSortedCopies(t *testing.T) {
	e := NewEngine()
	topics := []string{"mutable"}
	if _, err := e.Subscribe(Subscription{Proxy: 0, Topics: topics}); err != nil {
		t.Fatal(err)
	}
	topics[0] = "changed" // must not affect the stored subscription
	if n := len(e.Match(Event{ID: "m", Topics: []string{"mutable"}})); n != 1 {
		t.Fatalf("stored subscription was mutated through caller slice")
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Subscribe(Subscription{Proxy: i, Topics: []string{"s"}}); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Match(Event{ID: "s", Topics: []string{"s"}})
	for i := 1; i < len(got); i++ {
		if got[i].ID <= got[i-1].ID {
			t.Fatal("Match results not sorted by ID")
		}
	}
}

func TestEngineConcurrentAccess(t *testing.T) {
	e := NewEngine()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id, err := e.Subscribe(Subscription{Proxy: w, Topics: []string{fmt.Sprintf("t%d", i%10)}})
				if err != nil {
					t.Error(err)
					return
				}
				e.Match(Event{ID: "e", Topics: []string{"t3"}})
				if i%2 == 0 {
					if err := e.Unsubscribe(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if e.Len() != 8*100 {
		t.Errorf("Len = %d, want 800", e.Len())
	}
}

func TestMatchCountsSumEqualsSubscriptions(t *testing.T) {
	// Property: for single-topic subscriptions all naming the same topic,
	// the sum of per-proxy counts equals the number of subscriptions.
	f := func(proxiesRaw []uint8) bool {
		e := NewEngine()
		for _, p := range proxiesRaw {
			if _, err := e.Subscribe(Subscription{Proxy: int(p), Topics: []string{"T"}}); err != nil {
				return false
			}
		}
		counts := e.MatchCounts(Event{ID: "x", Topics: []string{"T"}})
		sum := 0
		for _, c := range counts {
			sum += c
		}
		return sum == len(proxiesRaw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineRestoreKeepsIDsStable(t *testing.T) {
	e := NewEngine()
	id1, err := e.Subscribe(Subscription{Proxy: 0, Topics: []string{"news"}})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := e.Subscribe(Subscription{Proxy: 1, Keywords: []string{"go"}})
	if err != nil {
		t.Fatal(err)
	}
	subs, nextID := e.Dump()
	if len(subs) != 2 || subs[0].ID != id1 || subs[1].ID != id2 {
		t.Fatalf("Dump = %+v, want subs %d and %d", subs, id1, id2)
	}
	if nextID != id2 {
		t.Fatalf("nextID = %d, want %d", nextID, id2)
	}

	// Rebuild a fresh engine from the dump, as recovery does.
	r := NewEngine()
	for _, sub := range subs {
		if err := r.Restore(sub); err != nil {
			t.Fatal(err)
		}
	}
	r.AdvanceNextID(nextID)
	got := r.Match(Event{ID: "p", Topics: []string{"news"}, Keywords: []string{"go"}})
	if len(got) != 2 || got[0].ID != id1 || got[1].ID != id2 {
		t.Fatalf("recovered engine matched %+v, want IDs %d and %d", got, id1, id2)
	}
	// New subscriptions never reuse a recovered ID.
	id3, err := r.Subscribe(Subscription{Proxy: 0, Topics: []string{"sports"}})
	if err != nil {
		t.Fatal(err)
	}
	if id3 <= id2 {
		t.Errorf("new ID %d should exceed restored max %d", id3, id2)
	}
}

func TestEngineRestoreRejectsBadInput(t *testing.T) {
	e := NewEngine()
	if err := e.Restore(Subscription{ID: 0, Topics: []string{"x"}}); err == nil {
		t.Error("ID 0 should be rejected")
	}
	if err := e.Restore(Subscription{ID: 1}); err == nil {
		t.Error("empty subscription should be rejected")
	}
	if err := e.Restore(Subscription{ID: 1, Proxy: -1, Topics: []string{"x"}}); err == nil {
		t.Error("negative proxy should be rejected")
	}
	if err := e.Restore(Subscription{ID: 1, Topics: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(Subscription{ID: 1, Topics: []string{"y"}}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate ID = %v, want ErrDuplicateID", err)
	}
}

func TestEngineAdvanceNextIDPreventsReuse(t *testing.T) {
	e := NewEngine()
	e.AdvanceNextID(41)
	id, err := e.Subscribe(Subscription{Proxy: 0, Topics: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 {
		t.Errorf("first ID after AdvanceNextID(41) = %d, want 42", id)
	}
	e.AdvanceNextID(10) // never goes backwards
	if id2, _ := e.Subscribe(Subscription{Proxy: 0, Topics: []string{"y"}}); id2 != 43 {
		t.Errorf("ID after backwards advance = %d, want 43", id2)
	}
}
