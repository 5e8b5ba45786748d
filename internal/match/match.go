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
// predicate once, its multiplicity and the ascending run of its members.
// A member is a subscription ID and the value of type V its subscriber
// gave (SubscribeWith): a broker keeps each subscription's delivery
// target there, so the engine is its only subscription registry. A
// duplicate Subscribe or Restore, and the Unsubscribe of a member, change
// only the run.
//
// The index is inverted, keyed by topic and keyword. Each aggregate is
// posted under its access terms only: its first keyword when it has
// keywords, else each of its topics. Posting lists ascend by the
// aggregates' creation order. Matching cost therefore scales with the
// aggregates reachable through the event's terms rather than with the
// subscription population, and a selective topic+keyword aggregate is
// never a candidate of an event that merely shares its topic.
//
// AppendMatchGroups is the engine's one read. It returns the matched
// aggregates in creation order, each with its proxy and multiplicity N,
// and their members, each aggregate's ascending: a proxy's fS is the sum
// of its aggregates' N, and the members' values are where to notify.
// AppendMatchRefs flattens the same walk into one ref per subscription.
// Dump returns every subscription ascending by ID, for snapshots.
package match

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	"pubsubcd/internal/idtable"
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

// Member is one subscription of an aggregate: its ID and the value
// stored with it. Value comes first, so a zero-size V adds no padding.
type Member[V any] struct {
	Value V
	ID    int64
}

// aggregate is one (proxy, topics, keywords) predicate and the
// subscriptions that share it. The first member is held inline, so a
// predicate with one subscription costs one record and one term slice:
// 64 bytes when V is empty.
type aggregate[V any] struct {
	seq     uint64       // creation order: posting lists ascend by it
	proxy   int          // the proxy every member belongs to
	terms   []string     // the topics, then the keywords
	nTopics int32        // how many of terms are topics
	hash    uint32       // the predicate's hash, which predTable probes by
	first   Member[V]    // the member with the smallest ID
	more    *[]Member[V] // the other members, ascending by ID; nil when there are none
}

func (a *aggregate[V]) topics() []string   { return a.terms[:a.nTopics:a.nTopics] }
func (a *aggregate[V]) keywords() []string { return a.terms[a.nTopics:] }

// size returns the aggregate's multiplicity, its number of members.
func (a *aggregate[V]) size() int {
	if a.more == nil {
		return 1
	}
	return 1 + len(*a.more)
}

// appendMembers appends the members, ascending by ID, to dst.
func (a *aggregate[V]) appendMembers(dst []Member[V]) []Member[V] {
	dst = append(dst, a.first)
	if a.more != nil {
		dst = append(dst, *a.more...)
	}
	return dst
}

func byID[V any](m Member[V], id int64) int { return cmp.Compare(m.ID, id) }

// add makes m, whose ID is no member's yet, a member.
func (a *aggregate[V]) add(m Member[V]) {
	if a.more == nil {
		a.more = new([]Member[V])
	}
	if m.ID < a.first.ID {
		a.first, m = m, a.first
	}
	more := *a.more
	i, _ := slices.BinarySearchFunc(more, m.ID, byID[V])
	*a.more = slices.Insert(more, i, m)
}

// remove drops the member id and reports whether any member is left.
func (a *aggregate[V]) remove(id int64) bool {
	if a.more == nil {
		return false
	}
	more := *a.more
	i := 0
	if id == a.first.ID {
		a.first = more[0]
	} else {
		i, _ = slices.BinarySearchFunc(more, id, byID[V])
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
func (a *aggregate[V]) is(proxy int, topics, keywords []string) bool {
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
type predTable[V any] struct {
	slots []*aggregate[V] // len is a power of two
	n     int
}

// find returns the aggregate of the predicate (proxy, topics, keywords),
// whose hash is h, or nil when there is none.
func (t *predTable[V]) find(h uint32, proxy int, topics, keywords []string) *aggregate[V] {
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
func (t *predTable[V]) insert(a *aggregate[V]) {
	if 4*(t.n+1) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]*aggregate[V], max(8, 2*len(old)))
		for _, b := range old {
			if b != nil {
				t.place(b)
			}
		}
	}
	t.place(a)
	t.n++
}

func (t *predTable[V]) place(a *aggregate[V]) {
	mask := uint32(len(t.slots) - 1)
	i := a.hash & mask
	for t.slots[i] != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = a
}

// delete removes a if the table holds it.
func (t *predTable[V]) delete(a *aggregate[V]) {
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

// Engine is a thread-safe matching engine whose subscriptions each
// carry a value of type V.
type Engine[V any] struct {
	mu      sync.RWMutex
	nextID  int64
	nextSeq uint64
	ids     idtable.Table[*aggregate[V]] // every stored subscription's aggregate
	preds   predTable[V]                 // every aggregate, by predicate
	seed    maphash.Seed
	// byTopic and byKeyword are posting lists: for each term, the
	// aggregates having it as an access term (accessTerms), ascending
	// by creation order. Ordered lists make matching a merge instead
	// of a hash-set union plus sort — the publish fan-out hot path
	// walks them without allocating.
	byTopic   map[string][]*aggregate[V]
	byKeyword map[string][]*aggregate[V]
}

// NewEngine returns an empty matching engine that stores no values.
func NewEngine() *Engine[struct{}] { return New[struct{}]() }

// New returns an empty matching engine storing a V per subscription.
func New[V any]() *Engine[V] {
	return &Engine[V]{
		seed:      maphash.MakeSeed(),
		byTopic:   make(map[string][]*aggregate[V]),
		byKeyword: make(map[string][]*aggregate[V]),
	}
}

// insertPosting adds a to term's posting list, keeping it ordered by
// creation. A term listed twice by one predicate is inserted once.
func insertPosting[V any](m map[string][]*aggregate[V], term string, a *aggregate[V]) {
	list := m[term]
	i, found := slices.BinarySearchFunc(list, a.seq, bySeq[V])
	if found {
		return
	}
	m[term] = slices.Insert(list, i, a)
}

// removePosting removes a from term's posting list, dropping the term
// when its list empties.
func removePosting[V any](m map[string][]*aggregate[V], term string, a *aggregate[V]) {
	list := m[term]
	i, found := slices.BinarySearchFunc(list, a.seq, bySeq[V])
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

func bySeq[V any](a *aggregate[V], seq uint64) int { return cmp.Compare(a.seq, seq) }

// Subscribe stores a subscription with the zero V and returns its
// assigned ID.
func (e *Engine[V]) Subscribe(sub Subscription) (int64, error) {
	return e.SubscribeWith(sub, nil)
}

// SubscribeWith stores a subscription with the value value(id), id
// being the ID it assigns and returns; a nil value stores the zero V.
// The value is stored before any match can see the subscription.
func (e *Engine[V]) SubscribeWith(sub Subscription, value func(id int64) V) (int64, error) {
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
	var v V
	if value != nil {
		v = value(sub.ID)
	}
	e.storeLocked(&sub, v)
	return sub.ID, nil
}

// Restore re-inserts a subscription under its existing ID, with the
// zero V — the recovery path replaying a journal or snapshot. The ID
// counter advances past restored IDs, so later Subscribes never reuse
// one. A duplicate ID is rejected with ErrDuplicateID; recovery treats
// that as "already applied" when a record appears in both the snapshot
// and the log.
func (e *Engine[V]) Restore(sub Subscription) error {
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
	if _, dup := e.ids.Get(sub.ID); dup {
		return fmt.Errorf("%w: %d", ErrDuplicateID, sub.ID)
	}
	var zero V
	e.storeLocked(&sub, zero)
	if sub.ID > e.nextID {
		e.nextID = sub.ID
	}
	return nil
}

// storeLocked adds sub, under sub.ID and with v, to the aggregate of
// its predicate, creating and posting the aggregate when it is the
// predicate's first subscription. Caller holds e.mu for writing.
func (e *Engine[V]) storeLocked(sub *Subscription, v V) {
	m := Member[V]{Value: v, ID: sub.ID}
	h := predicateHash(e.seed, sub.Proxy, sub.Topics, sub.Keywords)
	a := e.preds.find(h, sub.Proxy, sub.Topics, sub.Keywords)
	if a != nil {
		a.add(m)
	} else {
		a = e.createLocked(h, sub, m)
	}
	e.ids.Set(sub.ID, a)
}

// createLocked makes first, sub's member, the first member of a new
// aggregate for sub's predicate, whose hash is h, and indexes and posts
// the aggregate.
func (e *Engine[V]) createLocked(h uint32, sub *Subscription, first Member[V]) *aggregate[V] {
	terms := make([]string, 0, len(sub.Topics)+len(sub.Keywords))
	terms = append(append(terms, sub.Topics...), sub.Keywords...)
	e.nextSeq++
	a := &aggregate[V]{seq: e.nextSeq, proxy: sub.Proxy, terms: terms, nTopics: int32(len(sub.Topics)), hash: h, first: first}
	e.preds.insert(a)
	m, access := e.accessTerms(a)
	for _, t := range access {
		insertPosting(m, t, a)
	}
	return a
}

// dropLocked unposts and unindexes an aggregate whose last member left.
func (e *Engine[V]) dropLocked(a *aggregate[V]) {
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
func (e *Engine[V]) accessTerms(a *aggregate[V]) (map[string][]*aggregate[V], []string) {
	if kw := a.keywords(); len(kw) > 0 {
		return e.byKeyword, kw[:1]
	}
	return e.byTopic, a.topics()
}

// AdvanceNextID raises the ID counter to at least n, so a recovered
// engine never hands out an ID the crashed instance already assigned
// (even to a subscription that was removed before the snapshot).
func (e *Engine[V]) AdvanceNextID(n int64) {
	e.mu.Lock()
	if n > e.nextID {
		e.nextID = n
	}
	e.mu.Unlock()
}

// Dump returns a copy of every stored subscription, sorted by ID, and
// the last assigned ID — the snapshot the durable broker persists.
func (e *Engine[V]) Dump() ([]Subscription, int64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]Subscription, 0, e.ids.Len())
	for i := 0; i < e.ids.Slots(); i++ {
		if id, a, live := e.ids.At(i); live {
			out = append(out, Subscription{
				ID:       id,
				Proxy:    a.proxy,
				Topics:   slices.Clone(a.topics()),
				Keywords: slices.Clone(a.keywords()),
			})
		}
	}
	return out, e.nextID
}

// Unsubscribe removes a subscription, and its value, by ID.
func (e *Engine[V]) Unsubscribe(id int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.ids.Delete(id)
	if !ok {
		return ErrNotFound
	}
	if a.remove(id) {
		return nil
	}
	e.dropLocked(a)
	return nil
}

// Len returns the number of stored subscriptions.
func (e *Engine[V]) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ids.Len()
}

// MatchGroup is one aggregate an event matched: the proxy its
// subscriptions belong to and N, its multiplicity — the number of its
// subscriptions, all of which the event matched.
type MatchGroup struct {
	Proxy int
	N     int
}

// AppendMatchGroups appends a MatchGroup for every aggregate matching
// ev to groups, in creation order, and the aggregate's members,
// ascending by ID, to members: each group's members are the next N.
// It is the publish fan-out's match: a proxy's fS is the sum of its
// groups' N, and the members' values are where to notify. Callers reuse
// both slices across events to keep matching allocation-free.
func (e *Engine[V]) AppendMatchGroups(groups []MatchGroup, members []Member[V], ev Event) ([]MatchGroup, []Member[V]) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.forEachMatch(ev, func(a *aggregate[V]) {
		groups = append(groups, MatchGroup{Proxy: a.proxy, N: a.size()})
		members = a.appendMembers(members)
	})
	return groups, members
}

// MatchRef is the identity of one matching subscription.
type MatchRef struct {
	ID    int64
	Proxy int
}

// AppendMatchRefs appends a MatchRef for every subscription matching
// ev to dst, in AppendMatchGroups' order, and returns the extended
// slice: it flattens the grouped match. It is kept for perfbench's match
// layer until that layer times AppendMatchGroups (ROADMAP item 13(a)).
func (e *Engine[V]) AppendMatchRefs(dst []MatchRef, ev Event) []MatchRef {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.forEachMatch(ev, func(a *aggregate[V]) {
		dst = append(dst, MatchRef{ID: a.first.ID, Proxy: a.proxy})
		if a.more != nil {
			for _, m := range *a.more {
				dst = append(dst, MatchRef{ID: m.ID, Proxy: a.proxy})
			}
		}
	})
	return dst
}

// forEachMatch calls fn once per aggregate ev matches, in creation
// order. Callers must hold e.mu.
func (e *Engine[V]) forEachMatch(ev Event, fn func(*aggregate[V])) {
	e.forEachCandidate(ev, func(a *aggregate[V]) {
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
func (e *Engine[V]) forEachCandidate(ev Event, fn func(*aggregate[V])) {
	var listsArr [8][]*aggregate[V]
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
	var last *aggregate[V]
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
func matches[V any](a *aggregate[V], ev Event) bool {
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
