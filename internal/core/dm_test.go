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

func TestDMCapacityInvariant(t *testing.T) {
	s := mustStrategy(t, NewDM, Params{Capacity: 300, Beta: 2})
	for i := 0; i < 3000; i++ {
		id := (i * 5) % 37
		size := int64(10 + (i*17)%80)
		if i%2 == 0 {
			s.Push(page(id, size), i/1000, (i*3)%7)
		} else {
			s.Request(page(id, size), i/1000, (i*3)%7)
		}
		if s.Used() > s.Capacity() {
			t.Fatalf("step %d: used %d > capacity %d", i, s.Used(), s.Capacity())
		}
	}
	d, ok := s.(*dm)
	if !ok {
		t.Fatal("DM should be *dm")
	}
	// Both heaps must track exactly the resident set.
	var resident int
	var sum int64
	for _, e := range d.slots {
		if e != nil {
			resident++
			sum += e.Size
		}
	}
	if len(d.gdHeap.items) != resident || len(d.subHeap.items) != resident {
		t.Fatalf("heap sizes diverged: gd=%d sub=%d slots=%d",
			len(d.gdHeap.items), len(d.subHeap.items), resident)
	}
	if sum != d.used {
		t.Fatalf("accounting drift: sum=%d used=%d", sum, d.used)
	}
}
