// Package match implements the publish/subscribe matching engine from the
// paper's architecture (Fig. 1): subscribers declare interests, publishers
// emit events, and the engine determines which subscriptions each event
// matches. Proxy servers aggregate their users' subscriptions, so for
// content distribution the quantity of interest is the number of matching
// subscriptions per proxy (fS in the paper's value functions, eq. 2).
//
// Subscriptions are conjunctions over two predicate kinds:
//
//   - Topics: the subscription matches events carrying at least one of the
//     listed topics (an OR over topics, as in topic-based systems).
//   - Keywords: every listed keyword must appear in the event (an AND, as
//     in content-based keyword filtering at news sites).
//
// The engine is an inverted index keyed by topic and keyword. Each
// subscription is posted under its access terms only: its first keyword
// when it has keywords, else each of its topics. Matching cost therefore
// scales with the subscriptions reachable through the event's terms
// rather than with the total subscription population, and a selective
// topic+keyword subscription is never a candidate of an event that
// merely shares its topic.
package match

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Event is a published unit of content as seen by the matching engine.
type Event struct {
	// ID identifies the page/document this event announces.
	ID string
	// Topics are the categories the content belongs to.
	Topics []string
	// Keywords are content terms extracted from the page.
	Keywords []string
}

// Subscription is a stored user interest.
type Subscription struct {
	// ID is assigned by the engine on Subscribe.
	ID int64
	// Proxy is the proxy server that aggregates this subscriber.
	Proxy int
	// Subscriber names the end user (informational).
	Subscriber string
	// Topics: match if the event carries at least one (empty = no topic
	// constraint).
	Topics []string
	// Keywords: every keyword must appear in the event (empty = no
	// keyword constraint).
	Keywords []string
}

// ErrEmptySubscription is returned when a subscription constrains nothing.
var ErrEmptySubscription = errors.New("match: subscription must have at least one topic or keyword")

// ErrNotFound is returned by Unsubscribe for unknown subscription IDs.
var ErrNotFound = errors.New("match: subscription not found")

// ErrDuplicateID is returned by Restore for an ID already in use.
var ErrDuplicateID = errors.New("match: duplicate subscription ID")

// Engine is a thread-safe matching engine.
type Engine struct {
	mu     sync.RWMutex
	nextID int64
	subs   map[int64]*Subscription
	// byTopic and byKeyword are posting lists: for each term, the
	// subscriptions having it as an access term (accessTerms), sorted
	// ascending by ID. Sorted lists make matching a merge instead of a
	// hash-set union plus sort — the publish fan-out hot path walks
	// them without allocating.
	byTopic   map[string][]*Subscription
	byKeyword map[string][]*Subscription
}

// NewEngine returns an empty matching engine.
func NewEngine() *Engine {
	return &Engine{
		subs:      make(map[int64]*Subscription),
		byTopic:   make(map[string][]*Subscription),
		byKeyword: make(map[string][]*Subscription),
	}
}

// insertPosting adds sub to term's posting list, keeping it sorted by
// ID. A term listed twice by one subscription is inserted once.
func insertPosting(m map[string][]*Subscription, term string, sub *Subscription) {
	list := m[term]
	i, found := slices.BinarySearchFunc(list, sub.ID, func(s *Subscription, id int64) int {
		return cmp.Compare(s.ID, id)
	})
	if found {
		return
	}
	m[term] = slices.Insert(list, i, sub)
}

// removePosting removes the subscription with the given ID from term's
// posting list, dropping the term when its list empties.
func removePosting(m map[string][]*Subscription, term string, id int64) {
	list := m[term]
	i, found := slices.BinarySearchFunc(list, id, func(s *Subscription, want int64) int {
		return cmp.Compare(s.ID, want)
	})
	if !found {
		return
	}
	list = slices.Delete(list, i, i+1)
	if len(list) == 0 {
		delete(m, term)
	} else {
		m[term] = list
	}
}

// Subscribe stores a subscription and returns its assigned ID.
func (e *Engine) Subscribe(sub Subscription) (int64, error) {
	if len(sub.Topics) == 0 && len(sub.Keywords) == 0 {
		return 0, ErrEmptySubscription
	}
	if sub.Proxy < 0 {
		return 0, fmt.Errorf("match: negative proxy %d", sub.Proxy)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextID++
	sub.ID = e.nextID
	e.storeLocked(sub)
	return sub.ID, nil
}

// Restore re-inserts a subscription under its existing ID — the
// recovery path replaying a journal or snapshot. The ID counter
// advances past restored IDs, so later Subscribes never reuse one. A
// duplicate ID is rejected with ErrDuplicateID; recovery treats that
// as "already applied" when a record appears in both the snapshot and
// the log.
func (e *Engine) Restore(sub Subscription) error {
	if sub.ID <= 0 {
		return fmt.Errorf("match: restore needs a positive ID, got %d", sub.ID)
	}
	if len(sub.Topics) == 0 && len(sub.Keywords) == 0 {
		return ErrEmptySubscription
	}
	if sub.Proxy < 0 {
		return fmt.Errorf("match: negative proxy %d", sub.Proxy)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.subs[sub.ID]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, sub.ID)
	}
	e.storeLocked(sub)
	if sub.ID > e.nextID {
		e.nextID = sub.ID
	}
	return nil
}

// storeLocked stores a copy of sub under sub.ID and posts it under its
// access terms. Caller holds e.mu for writing.
func (e *Engine) storeLocked(sub Subscription) {
	sub.Topics = append([]string(nil), sub.Topics...)
	sub.Keywords = append([]string(nil), sub.Keywords...)
	stored := &sub
	e.subs[stored.ID] = stored
	m, terms := e.accessTerms(stored)
	for _, t := range terms {
		insertPosting(m, t, stored)
	}
}

// accessTerms returns the posting lists a subscription is reached
// through: its first keyword when it has keywords — every keyword is
// required, so an event it matches carries that one — and otherwise
// each of its topics. One list per keyword subscription keeps a
// selective event's candidates to the subscriptions naming that
// keyword instead of everyone sharing its topic. Subscribe, Restore
// and Unsubscribe all post and remove through this one rule.
func (e *Engine) accessTerms(sub *Subscription) (map[string][]*Subscription, []string) {
	if len(sub.Keywords) > 0 {
		return e.byKeyword, sub.Keywords[:1]
	}
	return e.byTopic, sub.Topics
}

// AdvanceNextID raises the ID counter to at least n, so a recovered
// engine never hands out an ID the crashed instance already assigned
// (even to a subscription that was removed before the snapshot).
func (e *Engine) AdvanceNextID(n int64) {
	e.mu.Lock()
	if n > e.nextID {
		e.nextID = n
	}
	e.mu.Unlock()
}

// Dump returns a copy of every stored subscription, sorted by ID, and
// the last assigned ID — the snapshot the durable broker persists.
func (e *Engine) Dump() ([]Subscription, int64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]Subscription, 0, len(e.subs))
	for _, sub := range e.subs {
		cp := *sub
		cp.Topics = append([]string(nil), sub.Topics...)
		cp.Keywords = append([]string(nil), sub.Keywords...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, e.nextID
}

// Unsubscribe removes a subscription by ID.
func (e *Engine) Unsubscribe(id int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	sub, ok := e.subs[id]
	if !ok {
		return ErrNotFound
	}
	delete(e.subs, id)
	m, terms := e.accessTerms(sub)
	for _, t := range terms {
		removePosting(m, t, id)
	}
	return nil
}

// Len returns the number of stored subscriptions.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.subs)
}

// Match returns the subscriptions the event matches, sorted by ID.
func (e *Engine) Match(ev Event) []Subscription {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []Subscription
	e.forEachCandidate(ev, func(sub *Subscription) {
		if e.matches(sub, ev) {
			out = append(out, *sub)
		}
	})
	return out
}

// MatchCounts returns, for each proxy with at least one matching
// subscription, the number of matching subscriptions. This is the fS input
// of the push-time value functions.
func (e *Engine) MatchCounts(ev Event) map[int]int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	counts := make(map[int]int)
	e.forEachCandidate(ev, func(sub *Subscription) {
		if e.matches(sub, ev) {
			counts[sub.Proxy]++
		}
	})
	return counts
}

// MatchRef is the identity of one matching subscription — what the
// publish fan-out hot path consumes, without copying term slices.
type MatchRef struct {
	ID    int64
	Proxy int
}

// AppendMatchRefs appends a MatchRef for every subscription matching
// ev to dst (ascending by ID) and returns the extended slice. Callers
// reuse dst across publishes to keep the hot path allocation-free.
func (e *Engine) AppendMatchRefs(dst []MatchRef, ev Event) []MatchRef {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.forEachCandidate(ev, func(sub *Subscription) {
		if e.matches(sub, ev) {
			dst = append(dst, MatchRef{ID: sub.ID, Proxy: sub.Proxy})
		}
	})
	return dst
}

// forEachCandidate calls fn once per distinct subscription touching any
// of the event's terms, ascending by ID. A subscription is a candidate
// via its access terms (accessTerms); exact verification happens in
// matches. The posting lists are sorted, so distinct-and-ordered falls
// out of a k-way merge (k = the event's term count, usually 1) with no
// allocation and no per-match sort. Callers must hold e.mu.
func (e *Engine) forEachCandidate(ev Event, fn func(*Subscription)) {
	var listsArr [8][]*Subscription
	lists := listsArr[:0]
	for _, t := range ev.Topics {
		if l := e.byTopic[t]; len(l) > 0 {
			lists = append(lists, l)
		}
	}
	for _, k := range ev.Keywords {
		if l := e.byKeyword[k]; len(l) > 0 {
			lists = append(lists, l)
		}
	}
	switch len(lists) {
	case 0:
		return
	case 1:
		for _, sub := range lists[0] {
			fn(sub)
		}
		return
	}
	var idxArr [8]int
	idx := idxArr[:]
	if len(lists) > len(idxArr) {
		idx = make([]int, len(lists))
	}
	last := int64(-1)
	for {
		best := -1
		var bestID int64
		for li, l := range lists {
			if idx[li] >= len(l) {
				continue
			}
			if id := l[idx[li]].ID; best == -1 || id < bestID {
				best, bestID = li, id
			}
		}
		if best == -1 {
			return
		}
		sub := lists[best][idx[best]]
		idx[best]++
		if sub.ID == last {
			continue // same subscription reached via another term
		}
		last = sub.ID
		fn(sub)
	}
}

// matches verifies a candidate from forEachCandidate against ev.
// forEachCandidate reaches a subscription only through a posting list
// of one of ev's terms, and each subscription sits only in the lists
// of its access terms (accessTerms). So a subscription without keywords
// needs no check: Subscribe and Restore reject empty subscriptions, so
// it has topics and was reached through one ev carries. A subscription
// with keywords was reached through its first keyword, which ev
// therefore carries; its topics and remaining keywords are checked.
func (e *Engine) matches(sub *Subscription, ev Event) bool {
	if len(sub.Keywords) == 0 {
		return true
	}
	if len(sub.Topics) > 0 && !slices.ContainsFunc(sub.Topics, func(t string) bool { return slices.Contains(ev.Topics, t) }) {
		return false
	}
	for _, want := range sub.Keywords[1:] {
		if !slices.Contains(ev.Keywords, want) {
			return false
		}
	}
	return true
}
