package core

import "testing"

// raceEnabled is set by race_test.go in -race builds, where the race
// runtime's own allocations make allocation counts meaningless.
var raceEnabled bool

// TestRejectedPushZeroAlloc checks that a full cache turning down a
// low-value push allocates nothing: the gate walks the existing heap and
// the page's entry is built only once it is admitted.
func TestRejectedPushZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, f := range []func(Params) (Strategy, error){NewSUB, NewSG2, NewDM, NewDCLAP} {
		s := mustStrategy(t, f, Params{Capacity: 1000, Beta: 2})
		for id := 0; id < 10; id++ {
			s.Push(page(id, 100), 0, 5)
			s.Request(page(50+id, 100), 0, 5) // fills DC-LAP's access cache
		}
		if s.Used() != s.Capacity() {
			t.Fatalf("%s: cache holds %d of %d bytes, want full", s.Name(), s.Used(), s.Capacity())
		}
		low := page(100, 100)
		allocs := testing.AllocsPerRun(100, func() {
			if s.Push(low, 0, 1) {
				t.Fatalf("%s stored a push valued below every resident page", s.Name())
			}
		})
		if allocs != 0 {
			t.Errorf("%s: rejected push allocates %.1f times, want 0", s.Name(), allocs)
		}
	}
}

// TestStorePathZeroAlloc pins the store's per-operation path at zero
// allocations: a slot lookup, a heap fix, and a pop of the minimum
// followed by re-adding the same entry.
func TestStorePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, _ := NewStore(1 << 20)
	for id := 0; id < 64; id++ {
		if err := s.Add(entry(id, 10, float64(id%7))); err != nil {
			t.Fatal(err)
		}
	}
	e, _ := s.Get(40)
	for name, op := range map[string]func(){
		"Get": func() { s.Get(33) },
		"Fix": func() { e.Value = -e.Value - 1; s.Fix(e) },
		"PopMin": func() {
			min, _ := s.PopMin()
			if err := s.Add(min); err != nil {
				t.Fatal(err)
			}
		},
	} {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("Store.%s allocates %.1f times, want 0", name, allocs)
		}
	}
}

// TestRefreshPushZeroAlloc checks that a push of a page already resident,
// which refreshes its version and subscription count in place, allocates
// nothing in any pushing scheme.
func TestRefreshPushZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, f := range Catalog() {
		if !f.UsesPush() {
			continue
		}
		s := mustStrategy(t, f.New, Params{Capacity: 1000, Beta: 2})
		for id := 0; id < 5; id++ {
			s.Push(page(id, 100), 0, 5)
		}
		resident := page(3, 100)
		version := 0
		allocs := testing.AllocsPerRun(100, func() {
			version++
			if !s.Push(resident, version, 5+version%3) {
				t.Fatalf("%s dropped a resident page on a refreshing push", f.Name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: refreshing push allocates %.1f times, want 0", f.Name, allocs)
		}
	}
}
