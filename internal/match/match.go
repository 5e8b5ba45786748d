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
// The engine stores aggregates, not subscriptions, as the paper's proxies
// do: every subscription with the same proxy, topics and keywords (the
// same slices, in the same order) joins one aggregate, which holds the
// predicate once, its multiplicity and the ascending run of its member
// subscription IDs. A duplicate Subscribe or Restore, and the Unsubscribe
// of a member, change only the run. Subscriber names live in a side map
// that holds only the non-empty ones.
//
// The index is inverted, keyed by topic and keyword. Each aggregate is
// posted under its access terms only: its first keyword when it has
// keywords, else each of its topics. Posting lists ascend by the
// aggregates' creation order. Matching cost therefore scales with the
// aggregates reachable through the event's terms rather than with the
// subscription population, and a selective topic+keyword aggregate is
// never a candidate of an event that merely shares its topic.
//
// AppendMatchGroups, the publish path's match, returns the matched
// aggregates in creation order and each one's members ascending, so its
// IDs run aggregate by aggregate. While every aggregate has one member
// and subscriptions only arrive through Subscribe, that order is
// ascending by ID. AppendMatchRefs, Match and Dump return subscriptions
// ascending by ID.
package match

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
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

// aggregate is one (proxy, topics, keywords) predicate and the
// subscriptions that share it. The first member is held inline, so a
// predicate with one subscription costs one 64-byte record and one term
// slice.
type aggregate struct {
	seq     uint64   // creation order: posting lists ascend by it
	proxy   int      // the proxy every member belongs to
	terms   []string // the topics, then the keywords
	nTopics int32    // how many of terms are topics
	hash    uint32   // the predicate's hash, which predTable probes by
	first   int64    // the smallest member ID
	more    *[]int64 // the other member IDs, ascending; nil when there are none
}

func (a *aggregate) topics() []string   { return a.terms[:a.nTopics:a.nTopics] }
func (a *aggregate) keywords() []string { return a.terms[a.nTopics:] }

// size returns the aggregate's multiplicity, its number of members.
func (a *aggregate) size() int {
	if a.more == nil {
		return 1
	}
	return 1 + len(*a.more)
}

// appendMembers appends the member IDs, ascending, to dst.
func (a *aggregate) appendMembers(dst []int64) []int64 {
	dst = append(dst, a.first)
	if a.more != nil {
		dst = append(dst, *a.more...)
	}
	return dst
}

// add makes id, which is no member yet, a member.
func (a *aggregate) add(id int64) {
	if a.more == nil {
		a.more = new([]int64)
	}
	if id < a.first {
		a.first, id = id, a.first
	}
	more := *a.more
	i, _ := slices.BinarySearch(more, id)
	*a.more = slices.Insert(more, i, id)
}

// remove drops the member id and reports whether any member is left.
func (a *aggregate) remove(id int64) bool {
	if a.more == nil {
		return false
	}
	more := *a.more
	i := 0
	if id == a.first {
		a.first = more[0]
	} else {
		i, _ = slices.BinarySearch(more, id)
	}
	if more = slices.Delete(more, i, i+1); len(more) == 0 {
		a.more = nil
	} else {
		*a.more = more
	}
	return true
}

// is reports whether the aggregate's predicate is (proxy, topics,
// keywords).
func (a *aggregate) is(proxy int, topics, keywords []string) bool {
	return a.proxy == proxy && slices.Equal(a.topics(), topics) && slices.Equal(a.keywords(), keywords)
}

// predicateHash is the hash predTable probes by. It is a variable so a
// test can make every predicate collide.
var predicateHash = func(seed maphash.Seed, proxy int, topics, keywords []string) uint32 {
	var h maphash.Hash
	h.SetSeed(seed)
	var head [16]byte
	binary.LittleEndian.PutUint64(head[:8], uint64(proxy))
	binary.LittleEndian.PutUint64(head[8:], uint64(len(topics)))
	_, _ = h.Write(head[:])
	for _, t := range topics {
		_, _ = h.WriteString(t)
		_ = h.WriteByte(0)
	}
	for _, k := range keywords {
		_, _ = h.WriteString(k)
		_ = h.WriteByte(0)
	}
	return uint32(h.Sum64())
}

// predTable finds an aggregate by its predicate: an open-addressing
// hash table with linear probing, at most three quarters full. Probing starts at
// the aggregate's stored hash, so growing and deleting hash no strings,
// and a delete shifts back the entries whose probe run crosses the
// freed slot instead of leaving a tombstone.
type predTable struct {
	slots []*aggregate // len is a power of two
	n     int
}

// find returns the aggregate of the predicate (proxy, topics, keywords),
// whose hash is h, or nil when there is none.
func (t *predTable) find(h uint32, proxy int, topics, keywords []string) *aggregate {
	if len(t.slots) == 0 {
		return nil
	}
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; t.slots[i] != nil; i = (i + 1) & mask {
		if a := t.slots[i]; a.hash == h && a.is(proxy, topics, keywords) {
			return a
		}
	}
	return nil
}

// insert adds a, whose predicate the table does not hold.
func (t *predTable) insert(a *aggregate) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]*aggregate, max(8, 2*len(old)))
		for _, b := range old {
			if b != nil {
				t.place(b)
			}
		}
	}
	t.place(a)
	t.n++
}

func (t *predTable) place(a *aggregate) {
	mask := uint32(len(t.slots) - 1)
	i := a.hash & mask
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = a
}

// delete removes a if the table holds it.
func (t *predTable) delete(a *aggregate) {
	if len(t.slots) == 0 {
		return
	}
	mask := uint32(len(t.slots) - 1)
	i := a.hash & mask
	for ; t.slots[i] != a; i = (i + 1) & mask {
		if t.slots[i] == nil {
			return
		}
	}
	// Move back each later entry of the run that may sit at the hole:
	// one whose home slot is not cyclically after the hole.
	for j := (i + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		if home := t.slots[j].hash & mask; (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = nil
	t.n--
}

// idIndex maps each subscription ID to its aggregate: entries sorted by
// ID. Subscribe hands out ascending IDs, so adding one appends; removing
// one leaves a nil tombstone, and the entries are compacted once half of
// them are dead, so a removal costs a binary search plus amortized O(1).
type idIndex struct {
	ents []idEntry
	dead int
}

type idEntry struct {
	id  int64
	agg *aggregate // nil once removed
}

func (x *idIndex) len() int { return len(x.ents) - x.dead }

// search returns the position of id's entry, or where it would go, and
// whether id is live.
func (x *idIndex) search(id int64) (int, bool) {
	i, found := slices.BinarySearchFunc(x.ents, id, func(e idEntry, id int64) int { return cmp.Compare(e.id, id) })
	return i, found && x.ents[i].agg != nil
}

// add maps id, which is not live, to a.
func (x *idIndex) add(id int64, a *aggregate) {
	if n := len(x.ents); n == 0 || x.ents[n-1].id < id {
		x.ents = append(x.ents, idEntry{id: id, agg: a})
		return
	}
	i, _ := x.search(id)
	if i < len(x.ents) && x.ents[i].id == id {
		x.ents[i].agg = a // a tombstone comes back to life
		x.dead--
		return
	}
	x.ents = slices.Insert(x.ents, i, idEntry{id: id, agg: a})
}

// remove drops the live entry at position i.
func (x *idIndex) remove(i int) {
	x.ents[i].agg = nil
	if x.dead++; 2*x.dead >= len(x.ents) {
		x.ents = slices.DeleteFunc(x.ents, func(e idEntry) bool { return e.agg == nil })
		x.dead = 0
	}
}

// Engine is a thread-safe matching engine.
type Engine struct {
	mu      sync.RWMutex
	nextID  int64
	nextSeq uint64
	ids     idIndex   // every stored subscription's aggregate
	preds   predTable // every aggregate, by predicate
	seed    maphash.Seed
	// names holds the non-empty Subscriber names, by subscription ID.
	names map[int64]string
	// byTopic and byKeyword are posting lists: for each term, the
	// aggregates having it as an access term (accessTerms), ascending
	// by creation order. Ordered lists make matching a merge instead
	// of a hash-set union plus sort — the publish fan-out hot path
	// walks them without allocating.
	byTopic   map[string][]*aggregate
	byKeyword map[string][]*aggregate
}

// NewEngine returns an empty matching engine.
func NewEngine() *Engine {
	return &Engine{
		seed:      maphash.MakeSeed(),
		names:     make(map[int64]string),
		byTopic:   make(map[string][]*aggregate),
		byKeyword: make(map[string][]*aggregate),
	}
}

// insertPosting adds a to term's posting list, keeping it ordered by
// creation. A term listed twice by one predicate is inserted once.
func insertPosting(m map[string][]*aggregate, term string, a *aggregate) {
	list := m[term]
	i, found := slices.BinarySearchFunc(list, a.seq, bySeq)
	if found {
		return
	}
	m[term] = slices.Insert(list, i, a)
}

// removePosting removes a from term's posting list, dropping the term
// when its list empties.
func removePosting(m map[string][]*aggregate, term string, a *aggregate) {
	list := m[term]
	i, found := slices.BinarySearchFunc(list, a.seq, bySeq)
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

func bySeq(a *aggregate, seq uint64) int { return cmp.Compare(a.seq, seq) }

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
	e.storeLocked(&sub)
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
	if _, dup := e.ids.search(sub.ID); dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, sub.ID)
	}
	e.storeLocked(&sub)
	if sub.ID > e.nextID {
		e.nextID = sub.ID
	}
	return nil
}

// storeLocked adds sub, under sub.ID, to the aggregate of its
// predicate, creating and posting the aggregate when it is the
// predicate's first subscription. Caller holds e.mu for writing.
func (e *Engine) storeLocked(sub *Subscription) {
	h := predicateHash(e.seed, sub.Proxy, sub.Topics, sub.Keywords)
	a := e.preds.find(h, sub.Proxy, sub.Topics, sub.Keywords)
	if a != nil {
		a.add(sub.ID)
	} else {
		a = e.createLocked(h, sub)
	}
	e.ids.add(sub.ID, a)
	if sub.Subscriber != "" {
		e.names[sub.ID] = sub.Subscriber
	}
}

// createLocked makes sub the first member of a new aggregate for its
// predicate, whose hash is h, and indexes and posts the aggregate.
func (e *Engine) createLocked(h uint32, sub *Subscription) *aggregate {
	terms := make([]string, 0, len(sub.Topics)+len(sub.Keywords))
	terms = append(append(terms, sub.Topics...), sub.Keywords...)
	e.nextSeq++
	a := &aggregate{seq: e.nextSeq, proxy: sub.Proxy, terms: terms, nTopics: int32(len(sub.Topics)), hash: h, first: sub.ID}
	e.preds.insert(a)
	m, access := e.accessTerms(a)
	for _, t := range access {
		insertPosting(m, t, a)
	}
	return a
}

// dropLocked unposts and unindexes an aggregate whose last member left.
func (e *Engine) dropLocked(a *aggregate) {
	m, access := e.accessTerms(a)
	for _, t := range access {
		removePosting(m, t, a)
	}
	e.preds.delete(a)
}

// accessTerms returns the posting lists an aggregate is reached
// through: its first keyword when it has keywords — every keyword is
// required, so an event it matches carries that one — and otherwise
// each of its topics. One list per keyword predicate keeps a selective
// event's candidates to the aggregates naming that keyword instead of
// everyone sharing its topic. Posting and unposting both go through
// this one rule.
func (e *Engine) accessTerms(a *aggregate) (map[string][]*aggregate, []string) {
	if kw := a.keywords(); len(kw) > 0 {
		return e.byKeyword, kw[:1]
	}
	return e.byTopic, a.topics()
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
	out := make([]Subscription, 0, e.ids.len())
	for _, ent := range e.ids.ents {
		if a := ent.agg; a != nil {
			out = append(out, Subscription{
				ID:         ent.id,
				Proxy:      a.proxy,
				Subscriber: e.names[ent.id],
				Topics:     slices.Clone(a.topics()),
				Keywords:   slices.Clone(a.keywords()),
			})
		}
	}
	return out, e.nextID
}

// Unsubscribe removes a subscription by ID.
func (e *Engine) Unsubscribe(id int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.ids.search(id)
	if !ok {
		return ErrNotFound
	}
	a := e.ids.ents[i].agg
	e.ids.remove(i)
	delete(e.names, id)
	if a.remove(id) {
		return nil
	}
	e.dropLocked(a)
	return nil
}

// Len returns the number of stored subscriptions.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ids.len()
}

// Match returns the subscriptions the event matches, sorted by ID.
// Their term slices are shared with the engine and must not be
// modified.
func (e *Engine) Match(ev Event) []Subscription {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []Subscription
	var ids []int64
	e.forEachMatch(ev, func(a *aggregate) {
		ids = a.appendMembers(ids[:0])
		for _, id := range ids {
			out = append(out, Subscription{
				ID:         id,
				Proxy:      a.proxy,
				Subscriber: e.names[id],
				Topics:     nilIfEmpty(a.topics()),
				Keywords:   nilIfEmpty(a.keywords()),
			})
		}
	})
	slices.SortFunc(out, func(x, y Subscription) int { return cmp.Compare(x.ID, y.ID) })
	return out
}

// nilIfEmpty returns s, or nil when s is empty: a Subscription's
// unconstrained kind reads as nil, as it was subscribed.
func nilIfEmpty(s []string) []string {
	if len(s) == 0 {
		return nil
	}
	return s
}

// MatchCounts returns, for each proxy with at least one matching
// subscription, the number of matching subscriptions. This is the fS input
// of the push-time value functions.
func (e *Engine) MatchCounts(ev Event) map[int]int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	counts := make(map[int]int)
	e.forEachMatch(ev, func(a *aggregate) {
		counts[a.proxy] += a.size()
	})
	return counts
}

// MatchRef is the identity of one matching subscription, without its
// term slices.
type MatchRef struct {
	ID    int64
	Proxy int
}

// AppendMatchRefs appends a MatchRef for every subscription matching
// ev to dst (ascending by ID) and returns the extended slice. Callers
// reuse dst across events to keep matching allocation-free: the merge
// that orders the refs works in dst's spare capacity.
func (e *Engine) AppendMatchRefs(dst []MatchRef, ev Event) []MatchRef {
	e.mu.RLock()
	defer e.mu.RUnlock()
	start := len(dst)
	e.forEachMatch(ev, func(a *aggregate) {
		dst = append(dst, MatchRef{ID: a.first, Proxy: a.proxy})
		if a.more != nil {
			for _, id := range *a.more {
				dst = append(dst, MatchRef{ID: id, Proxy: a.proxy})
			}
		}
	})
	n := len(dst) - start
	dst = slices.Grow(dst, n)
	mergeRuns(dst[start:], dst[len(dst):len(dst)+n])
	return dst
}

// mergeRuns sorts refs by ID. AppendMatchRefs lays them out one
// ascending run per aggregate, so a natural merge sort fits: each pass
// merges neighbouring runs pairwise from one of refs and buf (as long
// as refs) into the other, halving the runs, until one is left.
func mergeRuns(refs, buf []MatchRef) {
	src, dst := refs, buf
	for runEnd(src, 0) < len(src) {
		for i := 0; i < len(src); {
			j := runEnd(src, i)
			k := runEnd(src, j)
			merge(dst[i:k], src[i:j], src[j:k])
			i = k
		}
		src, dst = dst, src
	}
	if len(src) > 0 && &src[0] != &refs[0] {
		copy(refs, src)
	}
}

// merge merges the ascending runs a and b into out.
func merge(out, a, b []MatchRef) {
	i, j, k := 0, 0, 0
	for ; i < len(a) && j < len(b); k++ {
		if b[j].ID < a[i].ID {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// runEnd returns the end of the ascending run of refs starting at i.
func runEnd(refs []MatchRef, i int) int {
	if i == len(refs) {
		return i
	}
	for i++; i < len(refs) && refs[i-1].ID < refs[i].ID; i++ {
	}
	return i
}

// MatchGroup is one aggregate an event matched: the proxy its
// subscriptions belong to and N, its multiplicity — the number of its
// subscriptions, all of which the event matched.
type MatchGroup struct {
	Proxy int
	N     int
}

// AppendMatchGroups appends a MatchGroup for every aggregate matching
// ev to groups, in creation order, and the aggregate's member IDs,
// ascending, to ids: each group's members are the next N IDs. It is the
// publish fan-out's match: a proxy's fS is the sum of its groups' N,
// and the IDs are the subscriptions to notify. Callers reuse both
// slices across events to keep matching allocation-free.
func (e *Engine) AppendMatchGroups(groups []MatchGroup, ids []int64, ev Event) ([]MatchGroup, []int64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.forEachMatch(ev, func(a *aggregate) {
		groups = append(groups, MatchGroup{Proxy: a.proxy, N: a.size()})
		ids = a.appendMembers(ids)
	})
	return groups, ids
}

// forEachMatch calls fn once per aggregate ev matches, in creation
// order. Callers must hold e.mu.
func (e *Engine) forEachMatch(ev Event, fn func(*aggregate)) {
	e.forEachCandidate(ev, func(a *aggregate) {
		if matches(a, ev) {
			fn(a)
		}
	})
}

// forEachCandidate calls fn once per distinct aggregate posted under
// any of the event's terms, in creation order. An aggregate is a
// candidate via its access terms (accessTerms); exact verification
// happens in matches. The posting lists are ordered, so
// distinct-and-ordered falls out of a k-way merge (k = the event's term
// count, usually 1) with no allocation and no per-match sort. Callers
// must hold e.mu.
func (e *Engine) forEachCandidate(ev Event, fn func(*aggregate)) {
	var listsArr [8][]*aggregate
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
		for _, a := range lists[0] {
			fn(a)
		}
		return
	}
	var idxArr [8]int
	idx := idxArr[:]
	if len(lists) > len(idxArr) {
		idx = make([]int, len(lists))
	}
	var last *aggregate
	for {
		best := -1
		var bestSeq uint64
		for li, l := range lists {
			if idx[li] >= len(l) {
				continue
			}
			if seq := l[idx[li]].seq; best == -1 || seq < bestSeq {
				best, bestSeq = li, seq
			}
		}
		if best == -1 {
			return
		}
		a := lists[best][idx[best]]
		idx[best]++
		if a == last {
			continue // same aggregate reached via another term
		}
		last = a
		fn(a)
	}
}

// matches verifies a candidate from forEachCandidate against ev.
// forEachCandidate reaches an aggregate only through a posting list of
// one of ev's terms, and each aggregate sits only in the lists of its
// access terms (accessTerms). So an aggregate without keywords needs no
// check: Subscribe and Restore reject empty subscriptions, so it has
// topics and was reached through one ev carries. An aggregate with
// keywords was reached through its first keyword, which ev therefore
// carries; its topics and remaining keywords are checked.
func matches(a *aggregate, ev Event) bool {
	kw := a.keywords()
	if len(kw) == 0 {
		return true
	}
	if topics := a.topics(); len(topics) > 0 && !slices.ContainsFunc(topics, func(t string) bool { return slices.Contains(ev.Topics, t) }) {
		return false
	}
	for _, want := range kw[1:] {
		if !slices.Contains(ev.Keywords, want) {
			return false
		}
	}
	return true
}
