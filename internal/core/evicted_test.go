package core

import (
	"math/rand"
	"slices"
	"testing"
)

// resident is the brute-force residency of a page: a look into the
// strategy's own stores, independent of what it reports.
func resident(t *testing.T, s Strategy, id int) bool {
	t.Helper()
	switch s := s.(type) {
	case *engine:
		_, ok := s.store.Get(id)
		return ok
	case *dm:
		_, ok := s.get(id)
		return ok
	case *dualCache:
		_, inPC := s.pc.Get(id)
		_, inAC := s.ac.Get(id)
		return inPC || inAC
	}
	t.Fatalf("%s: unknown strategy type %T", s.Name(), s)
	return false
}

// TestEvictedMatchesResidencyDiff drives every catalog strategy, plus a
// DC-LAP that starts at its lower bound so first accesses take DC-FP's
// move and may drop the page, with seeded random pushes and requests.
// After every op the reported IDs must be exactly the pages resident
// before the op and not after it, found by brute force over every page,
// and their count must equal the OpStats.Evictions delta.
func TestEvictedMatchesResidencyDiff(t *testing.T) {
	type config struct {
		name string
		f    func(Params) (Strategy, error)
	}
	var configs []config
	for _, f := range Catalog() {
		configs = append(configs, config{f.Name, f.New})
	}
	configs = append(configs, config{"DC-LAP-at-lower-bound", func(p Params) (Strategy, error) {
		return NewDCLAPBounded(p, 0.5, DefaultDCLAPUpper)
	}})
	const pages = 40
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			var evictions, selfDrops int
			for seed := int64(1); seed <= 8; seed++ {
				r := rand.New(rand.NewSource(seed))
				s := mustStrategy(t, c.f, Params{Capacity: 4000, Beta: 2})
				er, ok := s.(EvictionReporter)
				if !ok {
					t.Fatalf("%s does not implement EvictionReporter", c.name)
				}
				sizes := make([]int64, pages)
				for id := range sizes {
					sizes[id] = 1 + r.Int63n(1500)
				}
				before := make([]bool, pages)
				var got, want []int
				for op := 0; op < 400; op++ {
					for id := range before {
						before[id] = resident(t, s, id)
					}
					statsBefore := opStats(t, s).Evictions
					id := r.Intn(pages)
					meta := PageMeta{ID: id, Size: sizes[id], Cost: 1 + float64(id%4)}
					version, subs := op/50, r.Intn(9)
					if r.Intn(2) == 0 {
						s.Push(meta, version, subs)
					} else {
						s.Request(meta, version, subs)
					}
					want = want[:0]
					for p, was := range before {
						if was && !resident(t, s, p) {
							want = append(want, p)
						}
					}
					got = append(got[:0], er.Evicted()...)
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d op %d: Evicted() = %v, residency lost %v", seed, op, got, want)
					}
					if d := opStats(t, s).Evictions - statsBefore; d != int64(len(got)) {
						t.Fatalf("seed %d op %d: %d IDs reported, Evictions rose by %d", seed, op, len(got), d)
					}
					evictions += len(got)
					if slices.Contains(got, id) {
						selfDrops++
					}
				}
			}
			if evictions == 0 {
				t.Error("no op evicted; the test exercises nothing")
			}
			if c.name == "DC-LAP-at-lower-bound" && selfDrops == 0 {
				t.Error("no first access dropped its page; the DC-FP drop went untested")
			}
		})
	}
}
