package core

import (
	"testing"
	"testing/quick"
)

// op is a randomly generated strategy operation for property testing.
type op struct {
	Push    bool
	ID      uint8
	Size    uint16
	Subs    uint8
	Version uint8
}

// applyOps drives a strategy with a generated op sequence, checking the
// core safety invariants after every step. It returns false on the first
// violation.
func applyOps(s Strategy, ops []op) bool {
	for _, o := range ops {
		meta := PageMeta{
			ID:   int(o.ID),
			Size: int64(o.Size%5000) + 1,
			Cost: 0.5 + float64(o.ID%7)/2,
		}
		version := int(o.Version % 4)
		subs := int(o.Subs % 16)
		var stored bool
		if o.Push {
			stored = s.Push(meta, version, subs)
		} else {
			_, stored = s.Request(meta, version, subs)
		}
		if s.Used() < 0 || s.Used() > s.Capacity() {
			return false
		}
		if s.Len() < 0 {
			return false
		}
		if stored {
			// A page reported stored at version v must hit for v right
			// away. That access may drop it (DC-LAP's DC-FP move of a
			// page larger than AC), but if the strategy reports it still
			// resident, the next request must hit too.
			hit, still := s.Request(meta, version, subs)
			if !hit {
				return false
			}
			if still {
				if hit, _ := s.Request(meta, version, subs); !hit {
					return false
				}
			}
		}
		if s.Used() > s.Capacity() {
			return false
		}
	}
	return true
}

// TestStrategyInvariantsProperty fuzzes every strategy in the catalog
// with random push/request sequences and checks capacity, residency and
// accounting invariants.
func TestStrategyInvariantsProperty(t *testing.T) {
	for _, f := range Catalog() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			prop := func(ops []op, capRaw uint16) bool {
				capacity := int64(capRaw%20000) + 100
				s, err := f.New(Params{Capacity: capacity, Beta: 2})
				if err != nil {
					return false
				}
				return applyOps(s, ops)
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestStrategyVersionMonotonicityProperty checks that serving a newer
// version always invalidates older cached content: after a request for
// version v succeeds as a hit, a request for version v+1 must not hit
// without an intervening push or refetch at v+1.
func TestStrategyVersionMonotonicityProperty(t *testing.T) {
	for _, f := range Catalog() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			prop := func(idRaw uint8, sizeRaw uint16, subsRaw uint8) bool {
				s, err := f.New(Params{Capacity: 1 << 20, Beta: 2})
				if err != nil {
					return false
				}
				meta := PageMeta{ID: int(idRaw), Size: int64(sizeRaw%3000) + 1, Cost: 1}
				subs := int(subsRaw % 8)
				s.Push(meta, 0, subs)
				_, stored := s.Request(meta, 0, subs)
				if !stored {
					return true // nothing cached, nothing to check
				}
				hit, _ := s.Request(meta, 1, subs)
				return !hit // version 1 was never delivered; must miss
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestEvictionFreesAccountedBytes drives heavy overcommit and confirms
// bytes are returned exactly: the sum of resident entries always matches
// Used() for the single-cache engine.
func TestEvictionFreesAccountedBytes(t *testing.T) {
	prop := func(ops []op) bool {
		s, err := NewSG1(Params{Capacity: 4096, Beta: 2})
		if err != nil {
			return false
		}
		if !applyOps(s, ops) {
			return false
		}
		g, ok := s.(*engine)
		if !ok {
			return false
		}
		var sum int64
		g.store.Each(func(e *Entry) bool {
			sum += e.Size
			return true
		})
		return sum == g.store.Used()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
