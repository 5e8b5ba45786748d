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
