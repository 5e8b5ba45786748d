package core

import (
	"testing"
)

func TestDMPushUsesSubOrdering(t *testing.T) {
	s := mustStrategy(t, NewDM, Params{Capacity: 100, Beta: 2})
	// Two pushed pages with different subscription values.
	s.Push(page(1, 50), 0, 1)  // SUB value 0.02
	s.Push(page(2, 50), 0, 10) // SUB value 0.2
	// New push, 5 subs → 0.1: only page 1 is a candidate.
	if stored := s.Push(page(3, 50), 0, 5); !stored {
		t.Fatal("push should displace page 1")
	}
	if hit, _ := s.Request(page(2, 50), 0, 10); !hit {
		t.Error("page 2 should survive the push-time replacement")
	}
	if hit, _ := s.Request(page(1, 50), 0, 1); hit {
		t.Error("page 1 should have been evicted at push time")
	}
}

func TestDMAccessUsesGDStarOrdering(t *testing.T) {
	s := mustStrategy(t, NewDM, Params{Capacity: 100, Beta: 1})
	// Page 1 has huge subscription value but will face the GD* module.
	s.Push(page(1, 50), 0, 100)
	// Access page 2 repeatedly: it builds GD* value; page 1 has refs=0.
	s.Request(page(2, 50), 0, 0)
	s.Request(page(2, 50), 0, 0)
	// Miss on page 3 triggers the GD* (access-time) replacement, which
	// ignores subscription value: page 1 (refs 0) is the victim despite
	// 100 subscriptions — exactly DM's overlap problem the paper notes.
	s.Request(page(3, 50), 0, 0)
	if hit, _ := s.Request(page(2, 50), 0, 0); !hit {
		t.Error("page 2 (referenced) should survive")
	}
	if hit, _ := s.Request(page(1, 50), 0, 100); hit {
		t.Error("page 1 should have been evicted by the GD* module")
	}
}

func TestDMMissAlwaysAdmits(t *testing.T) {
	s := mustStrategy(t, NewDM, Params{Capacity: 100, Beta: 2})
	hit, stored := s.Request(page(1, 60), 0, 0)
	if hit || !stored {
		t.Fatalf("miss should admit under GD*: hit=%v stored=%v", hit, stored)
	}
}

func TestDMOversizedPages(t *testing.T) {
	s := mustStrategy(t, NewDM, Params{Capacity: 100, Beta: 2})
	if stored := s.Push(page(1, 200), 0, 10); stored {
		t.Error("oversized push must not store")
	}
	if _, stored := s.Request(page(2, 200), 0, 0); stored {
		t.Error("oversized request must not store")
	}
}

func TestDMVersionRefresh(t *testing.T) {
	s := mustStrategy(t, NewDM, Params{Capacity: 100, Beta: 2})
	s.Push(page(1, 40), 0, 3)
	s.Push(page(1, 40), 2, 3)
	if hit, _ := s.Request(page(1, 40), 2, 3); !hit {
		t.Error("refreshed version should hit")
	}
	if hit, _ := s.Request(page(1, 40), 3, 3); hit {
		t.Error("newer version than cached should miss")
	}
}

// TestDMCapacityInvariant drives DM with mixed pushes and requests and,
// after every op, checks its pairs against the slot table: each heap
// holds exactly the resident pages, each at the position its entry
// records and as that pair's own half; both halves of a pair name the
// same page; and used is the sum of the resident sizes, within capacity.
func TestDMCapacityInvariant(t *testing.T) {
	s := mustStrategy(t, NewDM, Params{Capacity: 300, Beta: 2})
	d, ok := s.(*dm)
	if !ok {
		t.Fatal("DM should be *dm")
	}
	for i := 0; i < 3000; i++ {
		id := (i * 5) % 37
		size := int64(10 + (i*17)%80)
		if i%2 == 0 {
			s.Push(page(id, size), i/1000, (i*3)%7)
		} else {
			s.Request(page(id, size), i/1000, (i*3)%7)
		}
		var resident int
		var sum int64
		for id, e := range d.slots {
			if e == nil {
				continue
			}
			resident++
			sum += e.gd.Size
			if e.gd.ID != id || e.sub.ID != id || e.gd.Size != e.sub.Size {
				t.Fatalf("step %d: slot %d holds gd (page %d, %d bytes) and sub (page %d, %d bytes)",
					i, id, e.gd.ID, e.gd.Size, e.sub.ID, e.sub.Size)
			}
		}
		for _, h := range []struct {
			name  string
			heap  entryHeap
			entry func(*dmEntry) *Entry
		}{
			{"gd", d.gdHeap, func(e *dmEntry) *Entry { return &e.gd }},
			{"sub", d.subHeap, func(e *dmEntry) *Entry { return &e.sub }},
		} {
			if len(h.heap) != resident {
				t.Fatalf("step %d: %s heap holds %d entries, slot table %d", i, h.name, len(h.heap), resident)
			}
			for pos, x := range h.heap {
				if x.index != pos {
					t.Fatalf("step %d: %s heap slot %d holds page %d with index %d", i, h.name, pos, x.ID, x.index)
				}
				if e, ok := d.get(x.ID); !ok || h.entry(e) != x {
					t.Fatalf("step %d: %s heap holds page %d, which is not its resident pair's entry", i, h.name, x.ID)
				}
			}
		}
		if sum != d.used || d.used > d.capacity {
			t.Fatalf("step %d: used %d, resident bytes %d, capacity %d", i, d.used, sum, d.capacity)
		}
	}
}
